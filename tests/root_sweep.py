"""Fingerprint the solver's output over a grid of (n, m, prec) cases.

One line per case: n, m, prec, then the number of roots, the count of each
degeneracy flag, and the first 16 hex digits of a SHA-256 over the exact
(sign, mantissa, exponent, bit count) tuples of every root s (``_mpc_``),
its radius (``_mpf_``), its sorted flags and, at a nondegenerate root, its
context's eta_1, eta_2 and eta_1 + eta_2 (``_mpc_``) and the stored
integers of ``delta_theorem`` and ``delta_prop32`` (each polynomial's
sorted ``terms`` and its ``shift``), in the order
``solve_s_roots`` returns them, so a change of one bit anywhere shows; a
case that raises prints the exception instead.  A ``diff`` of two runs,
each against its own source tree, lists the cases that moved.  Run from
the repository root:

    PYTHONPATH=src python tests/root_sweep.py [--n 1..16] [--prec 128,256,512]
        [--m RE,IM ...]

The default grid is n = 1..16 at m = 1.2+0.4i, 0.9-0.2i and 0.6872-1.0699i,
at 128, 256 and 512 bits, 144 cases, with m read from its decimal strings
at each precision; ``--m``, repeated, replaces the three m.  It takes about 4.5 minutes on one core of a 2-core VM
(Python 3.11, mpmath's pure-Python backend); most of it is n >= 13.
"""

import argparse
import hashlib
import sys
from collections import Counter

from mpmath import mp, mpc, mpf

from talex import delta_prop32, delta_theorem, solve_s_roots

M_VALUES = (("1.2", "0.4"), ("0.9", "-0.2"), ("0.6872", "-1.0699"))


def fingerprint(n, m_pair, prec):
    """The case's line, without its (n, m, prec) prefix."""
    with mp.workprec(prec):
        m = mpc(mpf(m_pair[0]), mpf(m_pair[1]))
    try:
        roots = solve_s_roots(n, m, prec)
    except Exception as exc:   # the line records a refusal like any result
        return f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256()
    for ctx in roots:
        values = () if ctx.flags else (
            *(x._mpc_ for x in (ctx.eta1, ctx.eta2, ctx.eta_sum)),
            *((sorted(d.poly.terms.items()), d.poly.shift)
              for d in (delta_theorem(ctx), delta_prop32(ctx))))
        digest.update(repr((ctx.s._mpc_, ctx.radius._mpf_, sorted(ctx.flags), values)).encode())
    flags = Counter(flag for ctx in roots for flag in ctx.flags)
    counts = " ".join(f"{flag}:{k}" for flag, k in sorted(flags.items()))
    return f"{len(roots)} roots  {counts}  {digest.hexdigest()[:16]}"


def case_line(n, m_pair, prec):
    """The case's line, with its (n, m, prec) prefix."""
    m = ",".join(m_pair)
    return f"n={n:<3}m={m:<16}prec={prec:<5}{fingerprint(n, m_pair, prec)}"


def _range(text):
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=_range, default=range(1, 17),
                        help="n or an inclusive range lo..hi (default 1..16)")
    parser.add_argument("--prec", type=lambda t: [int(p) for p in t.split(",")],
                        default=[128, 256, 512],
                        help="comma-separated precisions (default 128,256,512)")
    parser.add_argument("--m", type=lambda t: tuple(t.split(",")), action="append",
                        help="m as RE,IM, repeatable (default: the three of M_VALUES)")
    args = parser.parse_args(argv)
    for n in args.n:
        for m_pair in args.m or M_VALUES:
            for prec in args.prec:
                print(case_line(n, m_pair, prec), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
