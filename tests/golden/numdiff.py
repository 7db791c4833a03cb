"""Compare two golden outputs number by number.

    python tests/golden/numdiff.py OLD NEW

Both files are split into numbers and the text between them.  If any text
differs, or the files hold different counts of numbers, the differing lines
are printed and the exit code is 1.  Otherwise the exit code is 0 and one
line reports how many numbers changed and the largest
|new - old| / max(1, |old|) among them, computed exactly from the decimal
strings.  Use it before re-capturing a fixture, to show that only printed
digits moved.
"""

import re
import sys
from decimal import Decimal, localcontext

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def split(text):
    """(text pieces, numbers as strings): pieces[i] precedes numbers[i]."""
    parts = NUMBER.split(text)
    return parts[0::2], parts[1::2]


def compare(old, new):
    """(changed, worst) for two texts that differ only in numbers; raises
    ValueError naming the first differing line otherwise."""
    (old_text, old_nums), (new_text, new_nums) = split(old), split(new)
    if old_text != new_text or len(old_nums) != len(new_nums):
        for i, (a, b) in enumerate(zip(old.splitlines(), new.splitlines())):
            if split(a)[0] != split(b)[0]:
                raise ValueError(f"line {i + 1} differs in text:\n- {a}\n+ {b}")
        raise ValueError("the files differ in their number of lines")
    changed, worst = 0, Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 2000
        for a, b in zip(old_nums, new_nums):
            if a != b:
                changed += 1
                da, db = Decimal(a), Decimal(b)
                worst = max(worst, abs(db - da) / max(Decimal(1), abs(da)))
    return changed, worst


def summary(changed, worst):
    """The one-line report of ``compare``'s result."""
    return f"{changed} numbers changed; largest relative change {float(worst):.2e}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (open(path).read() for path in argv)
    try:
        changed, worst = compare(old, new)
    except ValueError as exc:
        print(exc)
        return 1
    print(summary(changed, worst))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
