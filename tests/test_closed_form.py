"""The closed-form evaluators: coefficient formulas, the grouped
intermediate form, the vanishing quantities, and the genus/fiberedness
report; and the printed denominator and derivative expansion against the
Fox route."""

import random

import pytest
from mpmath import cos, mp, mpf, mpc, pi

from talex import (LaurentPoly, build_context, delta_prop32, delta_theorem,
                   genus_fiberedness_report, lambda_coefficients,
                   solve_s_roots, wada_polynomial, zeta_vanishing)
from talex.errors import DegenerateContext
from talex.laurent import DeltaResult
from talex.fox import wada_denominator
from talex.pretzel import (build_holonomy_rep, presentation_two_gen,
                           r0_polynomial)
from conftest import (STD_M, cached_contexts, cached_roots, coeffs, eps,
                      fox_derivative_of_relator, infnorm, laurent_value, m_at,
                      phi_map, three_routes)

import oracles

TIGHT = mpf("1e-60")


def rand_t(rng):
    return mpc(rng.uniform(0.3, 0.9), rng.uniform(-0.6, 0.6))


# -- coefficient formulas ---------------------------------------------------


def test_lambda_low_odd_coefficients_are_universal():
    """The odd-index coefficients below the top one are balanced s-power
    sums: index 1 gives 0 (empty sum, needs n >= 2 so that 1 < 2n-1),
    index 3 gives 1 (needs n >= 3), index 5 gives s + 1/s (needs n >= 4)."""
    for n, m_pair in ((2, STD_M[0]), (3, STD_M[1]), (4, STD_M[0])):
        ctx = cached_contexts(n, m_pair)[0]
        lams = lambda_coefficients(ctx)
        assert abs(lams[1]) == 0
        if n >= 3:
            assert abs(lams[3] - 1) == 0
        if n >= 4:
            s = ctx.s
            with mp.workprec(ctx.prec):
                assert abs(lams[5] - (s + 1 / s)) < eps(200) * (1 + abs(s))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_lambda_against_literal_formula(n):
    """Double transcription of the three-case formula.  The oracle takes
    the odd-case ratio by literal division, which is fine at the generic
    roots used here."""
    for m_pair in STD_M:
        ctx = cached_contexts(n, m_pair)[0]
        lams = lambda_coefficients(ctx)
        with mp.workprec(320):
            for i, lam in enumerate(lams):
                ref = oracles.lambda_value(n, i, ctx.m, ctx.s)
                assert abs(lam - ref) < mpf("1e-50") * (1 + abs(ref)), i


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_theorem_shape(n):
    for m_pair in STD_M:
        ctx = cached_contexts(n, m_pair)[0]
        res = delta_theorem(ctx)
        p = res.poly
        assert res.sign == 1 and res.shift == 0
        assert p.min_exp == 0 and p.max_exp == 4 * n + 6
        assert abs(p.coeff(0) - 1) == 0
        assert abs(p.coeff(4 * n + 6) - 1) == 0
        # exponents 1, 2 and the middle 2n+3 never receive a term
        for e in (1, 2, 2 * n + 3, 4 * n + 4, 4 * n + 5):
            assert abs(p.coeff(e)) == 0
        scale = infnorm(p)
        for e in range(0, 4 * n + 7):
            assert abs(p.coeff(e) - p.coeff(4 * n + 6 - e)) < eps(200) * scale


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_grouped_form_equals_theorem(n):
    for m_pair in STD_M:
        for ctx in cached_contexts(n, m_pair):
            a = delta_theorem(ctx).poly
            b = delta_prop32(ctx).poly
            assert infnorm(a - b) < TIGHT * (1 + infnorm(a))


def test_grouped_form_oracle_at_random_t():
    """The literal quotient form of the grouped expression (evaluated at
    numeric t away from its removable singularities) agrees with the
    expanded polynomial times the t^6 normalization."""
    rng = random.Random(314)
    for n in (1, 2, 3):
        ctx = cached_contexts(n, STD_M[0])[0]
        poly = delta_prop32(ctx).poly
        for _ in range(4):
            t = rand_t(rng)
            with mp.workprec(320):
                ref = oracles.grouped_form_value(n, ctx.m, ctx.s, t)
                got = laurent_value(poly, t) / t ** 6
                assert abs(got - ref) < mpf("1e-50") * (1 + abs(ref))


def test_quotient_table_oracle_at_random_t():
    """The grouped coefficient table over its displayed denominator equals
    the final polynomial divided by t^6 (with the sign of one misprinted
    table entry corrected in the oracle)."""
    rng = random.Random(2718)
    for n in (2, 3):
        ctx = cached_contexts(n, STD_M[1])[0]
        poly = delta_theorem(ctx).poly
        for _ in range(4):
            t = rand_t(rng)
            with mp.workprec(320):
                ref = oracles.quotient_table_value(n, ctx.m, ctx.s, t)
                got = laurent_value(poly, t) / t ** 6
                assert abs(got - ref) < mpf("1e-50") * (1 + abs(ref))


def test_theorem_oracle_at_random_t():
    rng = random.Random(1618)
    for n in (1, 2, 4):
        ctx = cached_contexts(n, STD_M[0])[0]
        poly = delta_theorem(ctx).poly
        for _ in range(4):
            t = rand_t(rng)
            with mp.workprec(320):
                ref = oracles.theorem_value(n, ctx.m, ctx.s, t)
                got = laurent_value(poly, t)
                assert abs(got - ref) < mpf("1e-50") * (1 + abs(ref))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_closed_form_m_symmetry(n):
    """m -> -m keeps s, alpha and H and negates beta, eta_1 and eta_2, so
    both closed forms at -m are t -> -t of the ones at m: coefficient e
    times (-1)^e.  Every rounding is odd, so the stored Gaussian integers
    and their power of two are (-1)^e times those at m, bit for bit, as
    ``test_fox_route_m_symmetries`` pins for the Fox route."""
    for m_pair in STD_M:
        m, roots = cached_roots(n, m_pair)
        with mp.workprec(256):
            negated = solve_s_roots(n, -m, 256)
        for base, other in zip(roots, negated):
            assert base.flags == other.flags
            if base.flags:
                continue
            for route in (delta_theorem, delta_prop32):
                p, q = route(base).poly, route(other).poly
                assert q.shift == p.shift, (route.__name__, m_pair)
                assert q.terms == {e: (-re, -im) if e % 2 else (re, im)
                                   for e, (re, im) in p.terms.items()}, (
                    route.__name__, m_pair)


TINY_M = ("0.0099", "0.0015")


@pytest.fixture(scope="module")
def tiny_m_root():
    """The root of largest |s| (about 1e4) at n = 3, m = 0.0099+0.0015i."""
    roots = solve_s_roots(3, m_at(*TINY_M), 256)
    return max((r.s for r in roots if not r.flags), key=abs)


@pytest.mark.parametrize("prec", (128, 256, 512))
def test_closed_forms_keep_relative_precision_at_tiny_m(tiny_m_root, prec):
    """At |m| = 0.01 and |s| = 1e4 the context values span 1e-2 to 1e98,
    and 1 / (H m beta) is about 1e-88.  lambda_i, the grouped form's
    coefficients and zeta_1, zeta_2 stay within 2^(4-prec) of the oracles
    (at twice the precision), relative to the magnitudes of the terms each
    formula sums (eta_1 and eta_2 apart: their sum cancels some 68 bits).
    Measured within 2^-prec; rounding every operation to 6 bits fewer fails
    at all three precisions."""
    n = 3
    ctx = build_context(n, m_at(*TINY_M, prec=prec), tiny_m_root, prec)
    assert ctx.nondegenerate
    lams, grouped = lambda_coefficients(ctx), delta_prop32(ctx).poly
    z1, z2 = zeta_vanishing(ctx)
    tol = mpf(2) ** (4 - prec)
    with mp.workprec(2 * prec):
        m, s = ctx.m, ctx.s
        S, H = s ** n, oracles.h_value(n, m, s)
        a, b = oracles.alpha_value(n, m, s), oracles.beta_value(n, m, s)
        e1, e2 = oracles.eta1_value(n, m, s, a, b), oracles.eta2_value(n, m, s, a, b)
        for i, lam in enumerate(lams):
            ref = oracles.lambda_value(n, i, m, s)
            if i == 2 * n - 1:
                scale = (abs((s ** (n - 1) - s ** (1 - n)) / (s - 1 / s))
                         + abs(s * s - 1) * abs(e1) / (abs(H) * abs(S) * abs(b)))
            elif i % 2 == 0:
                k = i // 2 + 1
                scale = abs(1 + m * m) * (
                    abs(H) * abs(s) ** k * abs(b)
                    + abs(s) * abs(s ** k - s ** -k) * (abs(e1) + abs(e2))
                ) / (abs(H) * abs(m) * abs(b))
            else:
                scale = max(1, abs(ref))
            for got in (lam, grouped.coeff(i + 3), grouped.coeff(4 * n - i + 3)):
                assert abs(got - ref) <= tol * scale, (i, prec)
        S2, m2 = S * S, abs(m) ** 2
        scale1 = abs(m) * abs(m * m + 1) * abs(s) * abs(s + 1) * (
            abs(H) * abs(S2) * abs(b) + abs(s) * abs(S2 - 1) * abs(e1)
            + abs(s * S2 - 1) * abs(e2))
        scale2 = (abs(H) * m2 * abs(s) * (abs(m) * abs(a) * (1 + abs(s) ** 2)
                                          + abs(b) * (abs(s) + abs(S2)))
                  + abs(s * s - 1) * (m2 * abs(e1) * (1 + abs(s) ** 3)
                                      + abs(s) * abs(e2) * (1 + m2)))
        assert abs(z1 - oracles.zeta1_value(n, m, s)) <= tol * scale1
        assert abs(z2 - oracles.zeta2_value(n, m, s)) <= tol * scale2


def test_eta_sum_is_one_evaluation_at_tiny_m(tiny_m_root):
    """At the largest-|s| root of n = 3, m = 0.0099+0.0015i, eta_1 and
    eta_2 cancel by about 40 bits in their sum, so the context evaluates
    eta_1 + eta_2 as one form, with the summed cofactors (``eta_sum``),
    from alpha and beta before their rounding: at 128 bits it is within
    1e-36 of the oracles' sum at 256 bits, relative (measured 1.7e-39; the
    sum of the two rounded values misses by 2.3e-27)."""
    n, prec = 3, 128
    ctx = build_context(n, m_at(*TINY_M, prec=prec), tiny_m_root, prec)
    with mp.workprec(2 * prec):
        m, s = ctx.m, ctx.s
        a, b = oracles.alpha_value(n, m, s), oracles.beta_value(n, m, s)
        ref = oracles.eta1_value(n, m, s, a, b) + oracles.eta2_value(n, m, s, a, b)
        assert abs(ctx.eta_sum - ref) <= mpf("1e-36") * abs(ref)
        assert abs(ctx.eta1 + ctx.eta2 - ref) > mpf("1e-30") * abs(ref)


def test_closed_form_requires_nondegenerate():
    m = m_at("1.2", "0.4")
    ctx = build_context(2, m, 1, strict=False)
    for fn in (delta_theorem, delta_prop32, lambda_coefficients):
        with pytest.raises(DegenerateContext):
            fn(ctx)


# -- the denominator and the derivative expansion ---------------------------


def two_gen_denominator(ctx):
    """det Phi(c - 1) of the 2-generator presentation, by the Fox route."""
    return wada_denominator(build_holonomy_rep(ctx, "two"), 1)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_denominator_closed_form_matches_fox_block(n):
    """The printed closed form is 1 + mid t^(2n+1) + t^(4n+2).  The Fox
    block has that support and those end coefficients, and its value at
    t = 1 pins mid."""
    ctx = cached_contexts(n, STD_M[0])[0]
    direct = two_gen_denominator(ctx)
    assert direct.support() == [0, 2 * n + 1, 4 * n + 2]
    with mp.workprec(ctx.prec):
        for e in (0, 4 * n + 2):
            assert abs(direct.coeff(e) - 1) < TIGHT
        ref = oracles.denominator_value(n, ctx.m, ctx.s, mpc(1))
        assert abs(laurent_value(direct, mpc(1)) - ref) < TIGHT * (1 + abs(ref))


def test_denominator_oracle_at_random_t():
    rng = random.Random(55)
    for n in (1, 3):
        ctx = cached_contexts(n, STD_M[1])[0]
        direct = two_gen_denominator(ctx)
        for _ in range(4):
            t = rand_t(rng)
            with mp.workprec(320):
                ref = oracles.denominator_value(n, ctx.m, ctx.s, t)
                got = laurent_value(direct, t)
                assert abs(got - ref) < mpf("1e-50") * (1 + abs(ref))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_derivative_expansion_matches_generic_fox(n):
    """The four-term matrix expansion of the relator derivative equals the
    generic Fox image entry by entry -- this certifies the bookkeeping
    identities behind the closed forms without transcribing them."""
    ctx = cached_contexts(n, STD_M[0])[0]
    rep = build_holonomy_rep(ctx, "two")
    pres = presentation_two_gen(n)
    generic = phi_map(fox_derivative_of_relator(pres.relators[0], 0), rep)
    expansion = oracles.derivative_expansion_eq2(ctx)
    scale = 1 + max(infnorm(e) for e in generic.entries())
    for g, x in zip(generic.entries(), expansion.entries()):
        assert infnorm(g - x) < TIGHT * scale


# -- the vanishing quantities -----------------------------------------------


def test_zeta1_vanishes_identically():
    """zeta_1 is an algebraic identity: it vanishes at arbitrary parameter
    points, roots or not."""
    rng = random.Random(808)
    for n in (1, 2, 3):
        for _ in range(6):
            m = mpc(rng.uniform(0.5, 1.4), rng.uniform(-0.7, 0.7))
            s = mpc(rng.uniform(-1.4, 1.4), rng.uniform(-1.1, 1.1))
            ctx = build_context(n, m, s, strict=False)
            z1, _ = zeta_vanishing(ctx)
            scale = (1 + abs(ctx.H) * abs(ctx.beta)
                     + abs(ctx.eta1) + abs(ctx.eta2)) * (1 + abs(s)) ** (2 * n + 2)
            assert abs(z1) < TIGHT * scale


@pytest.mark.parametrize("n", (1, 2, 3))
def test_zeta2_vanishes_at_roots_only(n):
    for ctx in cached_contexts(n, STD_M[0]):
        _, z2 = zeta_vanishing(ctx)
        scale = 1 + abs(ctx.H) * abs(ctx.alpha) + abs(ctx.eta1) + abs(ctx.eta2)
        assert abs(z2) < mpf("1e-50") * scale
    off = build_context(n, m_at("1.2", "0.4"), m_at("0.7", "0.5"),
                        strict=False)
    _, z2 = zeta_vanishing(off)
    assert abs(z2) > mpf("1e-10")


def test_zeta2_factors_through_defining_polynomial():
    """zeta_2 = cofactor * r0 at arbitrary points, not just roots, with the
    printed cofactor."""
    rng = random.Random(999)
    for n in (1, 2, 3):
        r0 = r0_polynomial(n)
        for _ in range(6):
            m = mpc(rng.uniform(0.5, 1.4), rng.uniform(-0.7, 0.7))
            s = mpc(rng.uniform(-1.4, 1.4), rng.uniform(-1.1, 1.1))
            ctx = build_context(n, m, s, strict=False)
            _, z2 = zeta_vanishing(ctx)
            with mp.workprec(ctx.prec):
                r0_value, r0_scale = r0.eval(m, s)
                cofactor = oracles.zeta2_cofactor_value(n, m, s)
                scale = 1 + abs(cofactor) * r0_scale
                assert abs(z2 - cofactor * r0_value) < TIGHT * scale


def test_zeta_oracles_at_random_points():
    rng = random.Random(1001)
    for n in (1, 2):
        for _ in range(5):
            m = mpc(rng.uniform(0.5, 1.4), rng.uniform(-0.7, 0.7))
            s = mpc(rng.uniform(-1.4, 1.4), rng.uniform(-1.1, 1.1))
            ctx = build_context(n, m, s, strict=False)
            z1, z2 = zeta_vanishing(ctx)
            with mp.workprec(320):
                ref1 = oracles.zeta1_value(n, m, s)
                ref2 = oracles.zeta2_value(n, m, s)
                assert abs(z1 - ref1) < mpf("1e-45") * (1 + abs(ref2))
                assert abs(z2 - ref2) < mpf("1e-45") * (1 + abs(ref2))


# -- cross-route agreement with the generic pipeline ------------------------


@pytest.mark.parametrize("n", (1, 2, 3))
def test_fox_pipeline_matches_theorem(n):
    ctx = cached_contexts(n, STD_M[1])[0]
    th = delta_theorem(ctx).poly
    rep = build_holonomy_rep(ctx, "two")
    for remove_k in range(len(rep.pres.generators)):
        fox = wada_polynomial(rep, remove_k)
        assert fox.exact
        assert infnorm(fox.poly - th) < mpf("1e-50") * (1 + infnorm(th))


def _convolve(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("n, family", ((1, {1, 3}), (2, {1, 2, 3, 4})),
                         ids=("n1", "n2"))
def test_torus_knots_match_kitano_morifuji(n, family):
    """K_1 and K_2 are the torus knots T(3, 4) and T(3, 5), whose twisted
    Alexander polynomials are known from outside the paper (Kitano and
    Morifuji, Ann. Sc. Norm. Super. Pisa, 2012): with q = n + 3, each
    irreducible representation has a k in 1..q-1 such that
      Delta (1 + e t^q + t^2q)(1 - c t^3 + t^6) = 1 - 2 e t^3q + t^6q,
    e = (-1)^k and c = 2 cos(pi k / q).  Every route must match exactly one
    k at every nondegenerate root; together the roots must reach ``family``
    (at n = 1 no root has k = 2).  The product is taken by convolution, so
    the oracle divides nothing."""
    q, prec = n + 3, 256
    matched = set()
    for m_pair in (("1.2", "0.4"), ("0.3", "-2.1"), ("-5", "0.01")):
        m = m_at(*m_pair, prec=prec)
        for rec in solve_s_roots(n, m, prec):
            if rec.flags:
                continue
            ctx = build_context(n, m, rec.s, prec)
            fox = wada_polynomial(build_holonomy_rep(ctx, "two"), 1)
            for res in (fox, delta_theorem(ctx), delta_prop32(ctx)):
                with mp.workprec(prec):
                    delta = [res.poly.coeff(e) for e in range(4 * n + 7)]
                    ks = []
                    for k in range(1, q):
                        e, c = (-1) ** k, 2 * cos(pi * k / q)
                        torus = [0] * (2 * q + 1)
                        torus[0], torus[q], torus[2 * q] = 1, e, 1
                        lhs = _convolve(_convolve(delta, torus),
                                        [1, 0, 0, -c, 0, 0, 1])
                        rhs = [0] * (6 * q + 1)
                        rhs[0], rhs[3 * q], rhs[6 * q] = 1, -2 * e, 1
                        if max(abs(a - b) for a, b in zip(lhs, rhs)) < TIGHT:
                            ks.append(k)
                assert len(ks) == 1, (m_pair, rec.s, res.method, ks)
                matched.add(ks[0])
    assert matched == family


# -- genus / fiberedness ----------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 5))
def test_genus_report(n):
    ctx = cached_contexts(n, STD_M[0])[0]
    rep = genus_fiberedness_report(delta_theorem(ctx), n)
    assert rep.degree == 4 * n + 6
    assert rep.monic
    assert rep.genus == n + 2
    assert rep.expected_degree == 4 * n + 6
    assert rep.expected_genus == n + 2
    assert rep.fibered_consistent


def test_genus_report_negative_control():
    ctx = cached_contexts(2, STD_M[0])[0]
    res = delta_theorem(ctx)
    doctored = res.poly + LaurentPoly({res.poly.max_exp + 1: 1}, res.poly.prec)
    bad = DeltaResult(doctored, 1, 0, "test", 0)
    rep = genus_fiberedness_report(bad, 2)
    assert not rep.fibered_consistent
    assert rep.degree != rep.expected_degree


@pytest.mark.parametrize("prec, offset", ((64, "1e-6"), (256, "2e-20")))
def test_monic_tolerance_floor_still_refuses(prec, offset):
    """The monicity tolerance is max(MONIC_TOL, 2^-(prec/2)): the Fox
    route at 64 bits reads monic, but an end coefficient moved to
    1 + 1e-6 is refused there, and 1 + 2e-20 at 256 bits."""
    fox = three_routes(1, STD_M[0], prec)[0]
    assert genus_fiberedness_report(fox, 1).fibered_consistent
    for e in (0, fox.poly.max_exp):
        terms = coeffs(fox.poly)
        with mp.workprec(prec):
            terms[e] = 1 + mpf(offset)
        bad = DeltaResult(LaurentPoly(terms, prec), 1, 0, "test", 0)
        rep = genus_fiberedness_report(bad, 1)
        assert rep.degree == rep.expected_degree
        assert not rep.monic and not rep.fibered_consistent
