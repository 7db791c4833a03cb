"""Command-line surface.

Subcommands:

* ``roots``  -- enumerate the roots of the defining polynomial at (n, m),
* ``delta``  -- compute the normalized twisted Alexander polynomial by any
  of the three routes (or all three, with their maximum deviation),
* ``verify`` -- run the full cross-validation suite over a sweep.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 no nondegenerate root, 3 numerical non-convergence, 4 degenerate context,
5 inexact division, 64 usage error, 74 output closed before it was written
(as when piped into ``head``).

Coefficients are emitted as decimal strings (never binary floats) with a
precision-dependent digit count, so output round-trips losslessly and is
byte-identical across runs for a fixed configuration.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

import mpmath
from mpmath import mp, mpf

from .errors import DegenerateContext, InexactDivision, NonConvergence
from .fox import wada_polynomial
from .closed_form import delta_prop32, delta_theorem, genus_fiberedness_report
from .laurent import half_prec_tol, max_pairwise_deviation
from .pretzel import (DEFAULT_PREC, MAX_N, build_holonomy_rep, check_n,
                      check_prec, select_root, solve_s_roots)
from .verify import m_at, verify_sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NO_ROOT = 2
EXIT_NONCONVERGENCE = 3
EXIT_DEGENERATE = 4
EXIT_INEXACT = 5
EXIT_USAGE = 64
EXIT_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text):
    """float(text); nan and inf are refused like any malformed number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_m(text):
    try:
        re_str, im_str = text.split(",")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")
    if (_finite_float(re_str), _finite_float(im_str)) == (0, 0):
        raise argparse.ArgumentTypeError("m must be nonzero")
    return (re_str.strip(), im_str.strip())


def _checked(check):
    """An argparse type: int(text), refused unless ``check`` accepts it."""
    def parse(text):
        try:
            value = int(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    return parse


_parse_n, _parse_prec = _checked(check_n), _checked(check_prec)


def _join_dash_values(argv):
    """``--m -1,0`` as ``--m=-1,0``, and so for ``--inject-perturbation``:
    argparse takes a dash-led value other than a plain negative number for
    an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--m", "--inject-perturbation") and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_range(text):
    try:
        lo, hi = text.split("..")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    lo, hi = _parse_n(lo), _parse_n(hi)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return range(lo, hi + 1)


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and then reused by
    every ``main`` call of the process."""
    parser = _Parser(prog="talex",
                     description="Twisted Alexander polynomials of the "
                                 "(-2,3,2n+1)-pretzel knots")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_parse_n, required=True,
                       help=f"family index, 1 <= n <= {MAX_N}")
        p.add_argument("--m", type=_parse_m, required=True,
                       help="meridian eigenvalue as RE,IM")
        p.add_argument("--precision-bits", type=_parse_prec,
                       default=DEFAULT_PREC)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_roots = sub.add_parser("roots", help="enumerate roots of the defining polynomial")
    common(p_roots)

    p_delta = sub.add_parser("delta", help="compute the twisted Alexander polynomial")
    common(p_delta)
    p_delta.add_argument("--method", choices=("fox", "theorem", "prop32", "all"),
                         default="all")
    p_delta.add_argument("--root-index", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--n-range", type=_parse_range, default=range(1, 6))
    p_verify.add_argument("--m", type=_parse_m, action="append", default=None)
    p_verify.add_argument("--precision-bits", type=_parse_prec,
                          default=DEFAULT_PREC)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--thorough", action="store_true",
                          help="run independence checks on every root, not "
                               "just the default one")
    p_verify.add_argument("--inject-perturbation", type=_finite_float, default=None,
                          metavar="EPS",
                          help="negative-control hook: offset every root by "
                               "EPS before checking")
    return parser


def _fmt(x, prec):
    return mpmath.nstr(x, max(17, int(prec * 0.3)), strip_zeros=False)


def _pair(z, prec):
    return [_fmt(z.real, prec), _fmt(z.imag, prec)]


def cmd_roots(args):
    prec = args.precision_bits
    records = solve_s_roots(args.n, m_at(args.m, prec), prec)
    payload = {
        "n": args.n,
        "m": list(args.m),
        "precision_bits": prec,
        "roots": [
            {
                "index": i,
                "s": _pair(rec.s, prec),
                "residual": _fmt(mpf(rec.residual), prec),
                "flags": sorted(rec.flags),
            }
            for i, rec in enumerate(records)
        ],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("index,re,im,residual,flags")
        for r in payload["roots"]:
            print(f"{r['index']},{r['s'][0]},{r['s'][1]},{r['residual']},"
                  + ";".join(r["flags"]))
    else:
        print(f"roots of the defining polynomial at n={args.n}, "
              f"m={args.m[0]}+{args.m[1]}i ({prec} bits):")
        for r in payload["roots"]:
            flag = " [" + ", ".join(r["flags"]) + "]" if r["flags"] else ""
            print(f"  #{r['index']:2d}  s = {r['s'][0]} + {r['s'][1]}i  "
                  f"residual {r['residual']}{flag}")
    nondeg = [r for r in records if not r.flags]
    return EXIT_OK if nondeg else EXIT_NO_ROOT


def _delta_payload(result, ctx, args):
    prec = ctx.prec
    return {
        "n": ctx.n,
        "m": list(args.m),
        "s": _pair(ctx.s, prec),
        "flags": sorted(ctx.flags),
        "method": result.method,
        "unit": {"sign": result.sign, "shift": result.shift},
        "coefficients": [
            {"exp": e, "re": _fmt(result.poly.coeff(e).real, prec),
             "im": _fmt(result.poly.coeff(e).imag, prec)}
            for e in result.poly.support()
        ],
    }


def cmd_delta(args):
    prec = args.precision_bits
    records = solve_s_roots(args.n, m_at(args.m, prec), prec)
    if args.root_index is None and all(rec.flags for rec in records):
        print("error: no nondegenerate root at this (n, m)", file=sys.stderr)
        return EXIT_NO_ROOT
    idx = select_root(records, args.root_index)
    ctx = records[idx]

    def run(method):
        if method == "fox":
            fox = wada_polynomial(build_holonomy_rep(ctx, "two"), 1)
            if not fox.exact:
                raise InexactDivision(
                    f"relative remainder {fox.remainder} exceeds tolerance "
                    f"{half_prec_tol(prec)}")
            return fox
        if method == "theorem":
            return delta_theorem(ctx)
        return delta_prop32(ctx)

    every = args.method == "all"
    results = {name: run(name) for name in (
        ("fox", "theorem", "prop32") if every else (args.method,))}
    methods = {name: _delta_payload(res, ctx, args) for name, res in results.items()}
    if every:
        # from the Fox route: delta_theorem is monic of degree 4n+6 by
        # construction, so its report would only restate the claim
        genus = genus_fiberedness_report(results["fox"], ctx.n)
        payload = {
            "n": ctx.n,
            "m": list(args.m),
            "s": _pair(ctx.s, prec),
            "root_index": idx,
            "max_pairwise_deviation": _fmt(max_pairwise_deviation(**results), prec),
            "genus": genus.genus,
            "fibered_consistent": genus.fibered_consistent,
            "methods": methods,
        }
        shown = methods["theorem"]
        header = (f"Delta_(K_{ctx.n}) at root #{idx}, all methods; "
                  f"max pairwise deviation {payload['max_pairwise_deviation']}")
    else:
        payload = shown = {**methods[args.method], "root_index": idx}
        header = (f"Delta_(K_{ctx.n}) via {shown['method']} at root #{idx} "
                  f"(unit sign {shown['unit']['sign']}, shift {shown['unit']['shift']}):")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("method,exp,re,im" if every else "exp,re,im")
        for name, method in methods.items():
            for c in method["coefficients"]:
                print(f"{name}," * every + f"{c['exp']},{c['re']},{c['im']}")
    else:
        print(header)
        for c in shown["coefficients"]:
            print(f"  t^{c['exp']:<3d} {c['re']}  {c['im']}i")
        if every:
            print(f"degree {genus.degree}, genus {genus.genus}, monic={genus.monic}")
    return EXIT_OK


def cmd_verify(args):
    prec = args.precision_bits
    ms = args.m or [("1.2", "0.4"), ("0.9", "-0.2")]
    report = verify_sweep(args.n_range, ms, prec=prec, thorough=args.thorough,
                          perturb_s=args.inject_perturbation)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for entry in report["entries"]:
            status = "PASS" if entry["passed"] else "FAIL"
            failing = [c["name"] for c in entry["checks"] if not c["passed"]]
            suffix = f"  failing: {', '.join(failing)}" if failing else ""
            print(f"{status}  n={entry['n']} m={entry['m'][0]}+{entry['m'][1]}i "
                  f"root#{entry['root_index']}{suffix}")
        print("all passed" if report["all_passed"] else "FAILURES present")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY_FAILED


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_dash_values(argv))
    except SystemExit as exc:
        return exc.code
    commands = {"roots": cmd_roots, "delta": cmd_delta, "verify": cmd_verify}
    try:
        # the one working precision of the command; --m is parsed under it
        with mp.workprec(args.precision_bits):
            code = commands[args.command](args)
        # a reader that closed early is seen here at the latest
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing can be reported through the closed stream; point stdout at
        # the null device so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR
    except NonConvergence as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except DegenerateContext as exc:
        print(f"error: degenerate context: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InexactDivision as exc:
        print(f"error: inexact division: {exc}", file=sys.stderr)
        return EXIT_INEXACT
    except (IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
