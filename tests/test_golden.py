"""Golden stdout: fixed ``roots``, ``delta`` and ``verify`` commands print
exactly the text stored in ``tests/golden/``.

The fixtures are the README commands plus a Fox run at n = 5, a 128-bit
run, the csv form of an all-methods run, a two-n ``verify`` report, a
``--thorough`` one (independence values at every root), the perturbed
negative control, which must exit 1, and the renderings the others leave
out: ``roots`` as text and csv, ``delta`` as Fox-only json and as
prop32-only csv, and ``verify`` as text.  Every printed digit of every root,
coefficient and check value is part of the contract, and so is the exit
code, so a change in the arithmetic's rounding shows up here.  To
re-capture, run ``python tests/golden/capture.py DIR``: it writes every
command's new stdout to DIR and compares each with its fixture through
``tests/golden/numdiff.py``, which fails if anything but the numbers moved
and reports the largest relative change.  ``python tests/golden/outside.py``
runs the same commands as ``python -m talex.cli`` from outside the checkout.
"""

from decimal import Decimal
from pathlib import Path

import pytest

from golden import numdiff
from talex import cli

GOLDEN = Path(__file__).parent / "golden"

# fixture name -> (command, exit code)
COMMANDS = {
    "roots_n2_json": ("roots --n 2 --m 1.2,0.4 --format json", cli.EXIT_OK),
    "delta_n2_all_json": ("delta --n 2 --m 1.2,0.4 --method all --format json",
                          cli.EXIT_OK),
    "delta_n2_all_csv": ("delta --n 2 --m 1.2,0.4 --method all --format csv",
                         cli.EXIT_OK),
    "delta_n3_theorem_idx7": (
        "delta --n 3 --m 0.9,-0.2 --method theorem --root-index 7", cli.EXIT_OK),
    "delta_n5_fox": ("delta --n 5 --m 1.2,0.4 --method fox", cli.EXIT_OK),
    "delta_n2_128": ("delta --n 2 --m 0.9,-0.2 --precision-bits 128", cli.EXIT_OK),
    "verify_n12_json": ("verify --n-range 1..2 --format json", cli.EXIT_OK),
    "verify_n2_thorough_json": (
        "verify --n-range 2..2 --m 1.2,0.4 --thorough --format json", cli.EXIT_OK),
    "verify_n1_perturbed_json": (
        "verify --n-range 1..1 --m 1.2,0.4 --inject-perturbation 1e-3 --format json",
        cli.EXIT_VERIFY_FAILED),
    "roots_n3_csv": ("roots --n 3 --m 0.9,-0.2 --format csv", cli.EXIT_OK),
    "roots_n1": ("roots --n 1 --m 1.2,0.4", cli.EXIT_OK),
    "delta_n2_fox_json": ("delta --n 2 --m 1.2,0.4 --method fox --format json",
                          cli.EXIT_OK),
    "delta_n3_prop32_idx7_csv": (
        "delta --n 3 --m 0.9,-0.2 --method prop32 --root-index 7 --format csv",
        cli.EXIT_OK),
    "verify_n1": ("verify --n-range 1..1 --m 1.2,0.4", cli.EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(capsys, name):
    command, expected_code = COMMANDS[name]
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_numdiff_measures_numbers_and_refuses_other_text():
    old = '{"passed": true, "value": "1.0", "exp": 3, "im": "-2.0e-3"}\n'
    new = '{"passed": true, "value": "1.25", "exp": 3, "im": "-2.5e-3"}\n'
    assert numdiff.compare(old, new) == (2, Decimal("0.25"))
    assert numdiff.compare(old, old) == (0, 0)
    with pytest.raises(ValueError, match="line 1"):
        numdiff.compare(old, old.replace("true", "false"))


def test_one_parser_serves_every_command_of_a_process(capsys):
    """``main`` builds the parser once per process: two different commands
    in one process, with a refused one between them, reuse it, and each
    prints its golden stdout."""
    cli.build_parser.cache_clear()
    for name in ("roots_n1", None, "delta_n3_prop32_idx7_csv"):
        if name is None:
            assert cli.main(["delta", "--n", "0", "--m", "1.2,0.4"]) == cli.EXIT_USAGE
            capsys.readouterr()
            continue
        command, expected_code = COMMANDS[name]
        assert cli.main(command.split()) == expected_code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
