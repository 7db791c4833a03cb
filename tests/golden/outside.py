"""Run every golden command as an installed user would: ``python -m
talex.cli`` in a fresh process, from a directory outside the checkout.

    python tests/golden/outside.py

Each command of ``test_golden.COMMANDS`` runs in a subprocess whose working
directory is a temporary one and whose ``PYTHONPATH`` has no entry for
``tests/``, so ``talex`` must import from ``src/`` (or an install) alone: a
module of ``src/`` that imports one that lives next to the tests fails
here.  Its stdout must equal the fixture byte for byte and its exit code
the recorded one; an unsupported n must be refused with the usage code.
Prints one line per command and a diff for each mismatch; exits 1 if any
command failed, 0 otherwise.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
# test_golden and the golden package live one level up, in tests/
sys.path.insert(0, str(TESTS))

from talex import cli  # noqa: E402
from test_golden import COMMANDS, GOLDEN  # noqa: E402

# an unsupported n is refused at parse time, before any polynomial is built
REFUSED = ("roots --n 100000000000 --m 1.2,0.4", cli.EXIT_USAGE)


def main():
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
             if p and Path(p).resolve() != TESTS]
    env["PYTHONPATH"] = os.pathsep.join(str(Path(p).resolve()) for p in paths)
    ok = True
    with tempfile.TemporaryDirectory() as cwd:
        cases = [(name, command, code) for name, (command, code) in sorted(COMMANDS.items())]
        cases.append(("refused", *REFUSED))
        for name, command, expected_code in cases:
            proc = subprocess.run([sys.executable, "-m", "talex.cli", *command.split()],
                                  cwd=cwd, env=env, capture_output=True, text=True)
            code, out = proc.returncode, proc.stdout
            problems = []
            if code != expected_code:
                problems.append(f"exit code {code}, expected {expected_code}")
            if name in COMMANDS:
                want = (GOLDEN / f"{name}.out").read_text()
                if out != want:
                    problems.append("stdout differs from the fixture")
                    sys.stdout.writelines(difflib.unified_diff(
                        want.splitlines(True), out.splitlines(True),
                        f"{name}.out", "stdout"))
            ok = ok and not problems
            print(f"{name}: {'; '.join(problems) or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
