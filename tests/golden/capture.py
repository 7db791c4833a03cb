"""Capture the golden commands' stdout afresh, for review before it
replaces the fixtures.

    python tests/golden/capture.py DIR

Each command of ``test_golden.COMMANDS`` runs in-process, as the test runs
it.  Its stdout is written to ``DIR/<name>.out`` and one line per fixture
gives ``numdiff``'s comparison with the committed one.  The exit code is 1 if any command's exit code
changed or any text other than numbers moved, and 0 otherwise; only then
may the new files be copied over ``tests/golden/``.
"""

import contextlib
import io
import sys
from pathlib import Path

# test_golden and the golden package live one level up, in tests/
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden import numdiff  # noqa: E402
from talex import cli  # noqa: E402
from test_golden import COMMANDS, GOLDEN  # noqa: E402


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, (command, expected_code) in sorted(COMMANDS.items()):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(command.split())
        new = stdout.getvalue()
        (out_dir / f"{name}.out").write_text(new)
        try:
            line = numdiff.summary(*numdiff.compare((GOLDEN / f"{name}.out").read_text(), new))
        except ValueError as exc:
            ok, line = False, str(exc)
        if code != expected_code:
            ok = False
            line += f"; exit code {code}, expected {expected_code}"
        print(f"{name}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
