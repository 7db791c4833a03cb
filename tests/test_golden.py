"""Golden stdout: fixed ``roots``, ``delta`` and ``verify`` commands print
exactly the text stored in ``tests/golden/``.

The fixtures are the README commands plus a Fox run at n = 5, a 128-bit
run, the csv form of an all-methods run and a two-n ``verify`` report; every printed digit of every root,
coefficient and check value is part of the contract, so a change in the
arithmetic's rounding shows up here.  Before re-capturing a fixture, run
``python tests/golden/numdiff.py OLD NEW``: it fails if anything but the
numbers moved and reports the largest relative change.
"""

from decimal import Decimal
from pathlib import Path

import pytest

from golden import numdiff
from talex import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "roots_n2_json": "roots --n 2 --m 1.2,0.4 --format json",
    "delta_n2_all_json": "delta --n 2 --m 1.2,0.4 --method all --format json",
    "delta_n2_all_csv": "delta --n 2 --m 1.2,0.4 --method all --format csv",
    "delta_n3_theorem_idx7": "delta --n 3 --m 0.9,-0.2 --method theorem --root-index 7",
    "delta_n5_fox": "delta --n 5 --m 1.2,0.4 --method fox",
    "delta_n2_128": "delta --n 2 --m 0.9,-0.2 --precision-bits 128",
    "verify_n12_json": "verify --n-range 1..2 --format json",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(capsys, monkeypatch, name):
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    code = cli.main(COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_numdiff_measures_numbers_and_refuses_other_text():
    old = '{"passed": true, "value": "1.0", "exp": 3, "im": "-2.0e-3"}\n'
    new = '{"passed": true, "value": "1.25", "exp": 3, "im": "-2.5e-3"}\n'
    assert numdiff.compare(old, new) == (2, Decimal("0.25"))
    assert numdiff.compare(old, old) == (0, 0)
    with pytest.raises(ValueError, match="line 1"):
        numdiff.compare(old, old.replace("true", "false"))
