"""The full cross-validation suite over sweeps of (n, m, root).

For every certified parameter point the suite checks: the group relations
under both presentations, vanishing of r1 and the zeta obstructions,
exactness of the Wada division, three-way agreement of the normalized
polynomial (Fox pipeline / final formula / grouped form), the structural
shape claims (palindromicity, forced zero coefficients, monic degree 4n+6),
and optionally presentation and column independence.

A failing point is retried at doubled precision, up to
``MAX_RETRY_PREC`` = 1024 bits, before being reported as failing.
"""

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .closed_form import (delta_prop32, delta_theorem, genus_fiberedness_report,
                          zeta_vanishing)
from .errors import DegenerateContext, NonConvergence
from .fox import wada_polynomial
from .laurent import coefficient_deviation, max_abs, max_pairwise_deviation
from .pretzel import (DEFAULT_PREC, build_context, build_holonomy_rep, check_n,
                      select_root, solve_s_roots)

MAX_RETRY_PREC = 1024

DEFAULT_THRESHOLDS = {
    "relation_two": mpf("1e-25"),
    "relation_three": mpf("1e-25"),
    "r1": mpf("1e-25"),
    "zeta1": mpf("1e-30"),
    "zeta2": mpf("1e-25"),
    "division": mpf("1e-25"),
    "agreement": mpf("1e-20"),
    "structural_zeros": mpf("1e-20"),
    "palindromic": mpf("1e-20"),
    "independence": mpf("1e-20"),
}


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    value: object
    threshold: object

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": mpmath.nstr(mpf(self.value), 6),
            "threshold": mpmath.nstr(mpf(self.threshold), 6),
        }


def check_context(ctx, independence=False):
    """All per-point checks against ``DEFAULT_THRESHOLDS``, at ``ctx.prec``;
    returns a list of CheckOutcome."""
    out = []

    def add(name, value):
        thr = DEFAULT_THRESHOLDS[name]
        out.append(CheckOutcome(name, value <= thr, value, thr))

    with mp.workprec(ctx.prec):
        rep2 = build_holonomy_rep(ctx, "two")
        rep3 = build_holonomy_rep(ctx, "three")
        add("relation_two", max(rep2.residuals))
        add("relation_three", max(rep3.residuals))
        add("r1", abs(ctx.r1))
        z1, z2 = zeta_vanishing(ctx)
        add("zeta1", abs(z1))
        add("zeta2", abs(z2))

        fox = wada_polynomial(rep2, 1)
        add("division", fox.remainder)

        theorem = delta_theorem(ctx)
        prop32 = delta_prop32(ctx)
        add("agreement", max_pairwise_deviation(fox, theorem, prop32))

        deg = 4 * ctx.n + 6
        add("structural_zeros", max_abs(fox.poly, (1, 2, deg - 2, deg - 1)))
        add("palindromic",
            max_abs(fox.poly - fox.poly.reflected(deg), range(deg + 1)))

        report = genus_fiberedness_report(fox, ctx.n)
        out.append(CheckOutcome("monic_degree", report.fibered_consistent,
                                mpf(report.degree), mpf(report.expected_degree)))

        if independence:
            alt = wada_polynomial(rep2, 0)
            three = wada_polynomial(rep3, 0)
            # a quotient with a remainder is no polynomial to compare
            dev = (max(coefficient_deviation(fox.poly, alt.poly),
                       coefficient_deviation(fox.poly, three.poly))
                   if alt.exact and three.exact else mpf("inf"))
            add("independence", dev)
    return out


def m_at(m_strings, prec):
    """m from its (RE, IM) decimal strings, rounded at ``prec`` bits."""
    with mp.workprec(prec):
        return mpc(mpf(m_strings[0]), mpf(m_strings[1]))


def verify_sweep(ns, ms, prec=DEFAULT_PREC, thorough=False, perturb_s=None):
    """Run the suite over all nondegenerate roots for every (n, m).

    Each m is given as its (RE, IM) decimal strings.  Each point is checked at
    ``prec`` bits; a failing point is retried at doubled precision, up to
    ``MAX_RETRY_PREC``, on the root nearest to the one that failed, and stays
    failed if a re-solve is refused or flags every root.  A retry parses m
    afresh from the strings, so it solves for the decimal m, not for its
    ``prec``-bit rounding.  The entry's ``retried_at`` lists every precision
    tried, a refused one too.  ``perturb_s`` offsets every root before
    checking; it is the negative-control hook, is expected to make the suite
    fail, and is never retried.  Every n is checked before the first root is
    solved.
    """
    ns = list(ns)
    for n in ns:
        check_n(n)
    entries = []
    for n in ns:
        for m_strings in ms:
            m = m_at(m_strings, prec)
            roots = solve_s_roots(n, m, prec)
            try:
                default_idx = select_root(roots)
            except DegenerateContext:
                default_idx = None
            for idx, rec in enumerate(roots):
                if rec.flags:
                    continue
                independence = thorough or idx == default_idx
                entry = _check_one(idx, rec, independence, perturb_s)
                p2 = prec
                while (not entry["passed"] and perturb_s is None
                       and p2 < MAX_RETRY_PREC):
                    p2 = min(2 * p2, MAX_RETRY_PREC)
                    m2 = m_at(m_strings, p2)
                    try:
                        roots2 = [r for r in solve_s_roots(n, m2, p2) if not r.flags]
                    except NonConvergence:   # a refused re-solve, as an empty one
                        roots2 = []
                    if not roots2:   # nothing to re-check: it stays failed
                        entry["retried_at"].append(p2)
                        break
                    with mp.workprec(p2):
                        near = min(roots2, key=lambda r: abs(r.s - rec.s))
                    retried = _check_one(idx, near, independence, None)
                    retried["retried_at"] += entry["retried_at"] + [p2]
                    entry = retried
                entries.append(entry)
    return {
        "precision_bits": prec,
        "entries": entries,
        "all_passed": all(e["passed"] for e in entries),
    }


def _check_one(idx, rec, independence, perturb_s):
    """The report entry of the solver's context ``rec`` as root ``idx``: its
    checks (at the root offset by ``perturb_s``, if given), whether all
    passed, and no retries yet."""
    ctx = rec
    if perturb_s is not None:
        with mp.workprec(rec.prec):
            s = rec.s + perturb_s
        ctx = build_context(rec.n, rec.m, s, rec.prec)
    checks = check_context(ctx, independence=independence)

    def pair(z):
        return [mpmath.nstr(z.real, 30), mpmath.nstr(z.imag, 30)]
    return {
        "n": rec.n,
        "m": pair(rec.m),
        "root_index": idx,
        "s": pair(ctx.s),
        "flags": sorted(rec.flags),
        "residual": mpmath.nstr(mpf(rec.residual), 6),
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "retried_at": [],
    }
