"""The nine acceptance criteria, one test each.

Every test prints a single pass/fail line for its criterion, then asserts.
Criteria 1-6 quantify over every nondegenerate root for n in 1..5 and the
two standard m values, at 256 bits, via the session-scoped caches.
"""

import random
import time

import mpmath
from mpmath import mp, mpf, mpc

from talex.pretzel import (BivarPoly, build_context, r0_polynomial,
                           solve_s_roots)
from talex.fox import wada_polynomial
from talex.closed_form import zeta_vanishing
from talex.pretzel import build_holonomy_rep
from conftest import STD_M, cached_checks, cached_contexts, m_at, m_reversed

NS = (1, 2, 3, 4, 5)


def report(num, title, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {tag}: {title}{suffix}")
    return passed


def all_outcomes(names):
    """(ctx, outcome) for every certified root and every requested check."""
    for n in NS:
        for m_pair in STD_M:
            for ctx, outcomes in cached_checks(n, m_pair):
                for out in outcomes:
                    if out.name in names:
                        yield ctx, out


def worst(names):
    entries = list(all_outcomes(names))
    assert entries, "quantifier is vacuous"
    bad = [(c, o) for c, o in entries if not o.passed]
    peak = max(mpf(o.value) for _, o in entries)
    return bad, peak


def test_criterion_1_representation_certification():
    t0 = time.time()
    bad, peak = worst({"relation_two", "relation_three"})
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300
    assert report(1, "relation residuals <= 1e-25, both presentations, "
                     "n in 1..5, all nondegenerate roots",
                  ok, f"max {mpmath.nstr(peak, 3)}, {elapsed:.0f}s")
    assert not bad and elapsed < 300


def test_criterion_2_identity_vanishing():
    bad, peak = worst({"r1", "zeta2"})
    # zeta1 at arbitrary contexts, roots or not
    rng = random.Random(160203)
    z1_peak = mpf(0)
    for n in (1, 2, 3):
        for _ in range(5):
            m = mpc(rng.uniform(0.6, 1.3), rng.uniform(-0.5, 0.5))
            s = mpc(rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0))
            ctx = build_context(n, m, s, strict=False)
            z1, _ = zeta_vanishing(ctx)
            z1_peak = max(z1_peak, abs(z1))
    for ctx in cached_contexts(3, STD_M[0]):
        z1, _ = zeta_vanishing(ctx)
        z1_peak = max(z1_peak, abs(z1))
    ok = not bad and z1_peak <= mpf("1e-30")
    assert report(2, "|r1|, |zeta2| <= 1e-25 at certified roots; "
                     "|zeta1| <= 1e-30 at arbitrary contexts",
                  ok, f"max root value {mpmath.nstr(peak, 3)}, "
                      f"max |zeta1| {mpmath.nstr(z1_peak, 3)}")
    assert ok


def test_criterion_3_three_way_agreement():
    bad, peak = worst({"agreement"})
    assert report(3, "Fox / final formula / grouped form agree per "
                     "coefficient within 1e-20",
                  not bad, f"max deviation {mpmath.nstr(peak, 3)}")
    assert not bad


def test_criterion_4_shape_from_fox_pipeline():
    entries = list(all_outcomes({"structural_zeros", "palindromic",
                                 "monic_degree"}))
    bad = [(c, o) for c, o in entries if not o.passed]
    assert report(4, "pipeline output is monic degree 4n+6, palindromic, "
                     "with the forced zero coefficients (genus n+2)",
                  not bad)
    assert not bad


def test_criterion_5_division_exactness():
    bad, peak = worst({"division"})
    assert report(5, "Wada division remainder <= 1e-25 relative",
                  not bad, f"max {mpmath.nstr(peak, 3)}")
    assert not bad


def test_criterion_6_presentation_and_column_independence():
    bad, peak = worst({"independence"})
    assert report(6, "both presentations and both removed columns give the "
                     "same normalized polynomial within 1e-20",
                  not bad, f"max deviation {mpmath.nstr(peak, 3)}")
    assert not bad


def test_criterion_7_exact_integer_properties():
    ok = True
    for n in range(1, 9):
        r0 = r0_polynomial(n)
        if m_reversed(r0, 8) != r0:
            ok = False
        s_minus_1 = BivarPoly({(1, 0): 1, (0, 0): -1})
        s_plus_1 = BivarPoly({(1, 0): 1, (0, 0): 1})
        q1, rem1 = r0.divmod_s(s_minus_1)
        q2, rem2 = q1.divmod_s(s_plus_1)
        if rem1 != BivarPoly() or rem2 != BivarPoly():
            ok = False
        if q2 * s_minus_1 * s_plus_1 != r0:
            ok = False
    assert report(7, "m-palindromicity and exact (s-1)(s+1) divisibility of "
                     "the defining polynomial, n in 1..8, integer arithmetic",
                  ok)
    assert ok


def test_criterion_8_precision_scaling():
    n = 2
    residuals = {}
    for prec in (128, 256, 512):
        m = m_at(*STD_M[0], prec=prec)
        roots = solve_s_roots(n, m, prec)
        res = mpf(0)
        for rec in roots:
            if rec.flags:
                continue
            ctx = build_context(n, m, rec.s, prec=prec)
            two, three = (build_holonomy_rep(ctx, name).residuals
                          for name in ("two", "three"))
            res = max(res, mpf(max(two + three)))
        residuals[prec] = res
    with mp.workprec(64):
        drop1 = mpmath.log10(residuals[128] / residuals[256])
        drop2 = mpmath.log10(residuals[256] / residuals[512])
    ok = drop1 >= 30 and drop2 >= 30
    assert report(8, "residuals drop >= 30 orders of magnitude per "
                     "precision doubling (128 -> 256 -> 512 bits)",
                  ok, f"drops {mpmath.nstr(drop1, 4)}, {mpmath.nstr(drop2, 4)}")
    assert ok


def test_criterion_9_negative_controls():
    ok = True
    details = []
    for n, m_pair in ((2, STD_M[0]), (3, STD_M[1])):
        base = cached_contexts(n, m_pair)[0]
        shift = mpf("1e-3")
        with mp.workprec(base.prec):
            s = base.s + shift
        ctx = build_context(n, base.m, s, strict=False)
        two, three = (build_holonomy_rep(ctx, name).residuals
                      for name in ("two", "three"))
        residual = max(two + three)
        if not residual > mpf("1e-6"):
            ok = False
        rel_rem = wada_polynomial(build_holonomy_rep(ctx, "two"), 1).remainder
        if not rel_rem > mpf("1e-25"):
            ok = False
        details.append(f"n={n}: residual {mpmath.nstr(mpf(residual), 3)},"
                       f" remainder {mpmath.nstr(rel_rem, 3)}")
    assert report(9, "perturbing s by 1e-3 breaks the relations (>1e-6) and "
                     "the division exactness", ok, "; ".join(details))
    assert ok
