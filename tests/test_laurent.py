"""Sparse Laurent polynomials, division, 2x2 matrices, normalization."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp

from talex import (LaurentPoly, build_holonomy_rep, delta_prop32,
                   delta_theorem, fox, laurent, wada_polynomial)
from talex.laurent import (SWEEP_GUARD_BITS,
                           coefficient_deviation, divide_with_remainder,
                           half_prec_tol, normalize_delta, poly_mat_det,
                           swept_gaussian)
from conftest import (STD_M, Mat2, cached_contexts, cached_roots, coeffs, eps,
                      infnorm, laurent_value, mpc_inverse)

PREC = 192


def rand_poly(rng, lo=-4, hi=6, density=0.7, prec=PREC):
    terms = {}
    for e in range(lo, hi + 1):
        if rng.random() < density:
            terms[e] = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
    if not terms:
        terms[0] = 1
    return LaurentPoly(terms, prec)


def test_basic_structure():
    p = LaurentPoly({-2: 3, 0: 1, 5: -2}, PREC)
    assert p.min_exp == -2 and p.max_exp == 5
    assert p.support() == [-2, 0, 5]
    assert abs(p.coeff(0) - 1) < eps(150)
    assert p.coeff(3) == 0
    assert p.shifted(2).support() == [0, 2, 7]


def test_zero_and_sweep():
    p = LaurentPoly({0: 1, 3: mpf(2) ** (-300)}, PREC)
    # the tiny coefficient is below the relative floor and gets swept
    assert p.support() == [0]
    q = LaurentPoly({2: 1}, PREC) - LaurentPoly({2: 1}, PREC)
    assert q.is_zero()


def test_fit_rounds_ties_to_even_on_one_power_of_two():
    """``fit`` leaves parts within the budget as they are, shifts every
    part by the excess of the largest, rounds to nearest with ties to even
    (so -x gives minus what x gives), may carry the largest to exactly
    2^bits, and passes zeros."""
    assert laurent.fit([7, -8, 3], 5, 4) == ([7, -8, 3], 5)
    assert laurent.fit([15, -15], -3, 4) == ([15, -15], -3)
    # the carry, for both signs: 6 bits down to 4 gives 2^4, one bit over
    assert laurent.fit([63, 1], 0, 4) == ([16, 0], 2)
    assert laurent.fit([-63, -1], 0, 4) == ([-16, 0], 2)
    # 5/2 and 7/2 are halves: each goes to the even neighbour, either sign
    assert laurent.fit([5, -5], 7, 2) == ([2, -2], 8)
    assert laurent.fit([7, -7], 7, 2) == ([4, -4], 8)
    assert laurent.fit([0, 0, 0], 4, 8) == ([0, 0, 0], 4)


def test_one_rounding_rule_in_every_spelling():
    """The rule of ``fit`` is written out again for speed in ``_round`` and
    for a divisor that is not a power of two in ``nearest``: all three
    round x / d to nearest, ties to even, as ``round`` does on a Fraction.
    About half of the inputs are built as exact ties."""
    rng = random.Random(26)
    for _ in range(3000):
        prec = rng.randint(1, 80)
        k = rng.randint(0, 70)
        x = rng.getrandbits(prec + k) | 1 << (prec + k - 1)
        if k and rng.random() < 0.5:   # an exact tie, k bits below the top
            x = (x >> k << k) | 1 << (k - 1)
        x = -x if rng.random() < 0.5 else x
        want = round(Fraction(x, 1 << k)) << k
        assert laurent._round(x, prec) == want, (x, prec)
        parts, exp = laurent.fit([x], 0, prec)
        assert parts[0] << exp == want, (x, prec)
    for _ in range(3000):
        d = rng.randint(1, 1 << rng.randint(1, 90))
        q = rng.randint(-(1 << 100), 1 << 100)
        if d % 2 == 0 and rng.random() < 0.5:   # an exact tie: q + 1/2
            x = q * d + d // 2
        else:
            x = q * d + rng.randrange(d)
        assert laurent.nearest(x, d) == round(Fraction(x, d)), (x, d)
    assert [laurent.nearest(x, 2) for x in (-5, -3, -1, 1, 3, 5)] == [-2, -2, 0, 0, 2, 2]


def test_fit_quotient_rounds_the_exact_quotient():
    """``fit_quotient`` gives each part of (parts / norm) 2^exp rounded to
    nearest, ties to even, on the one power of two it returns, with at most
    ``bits`` + 1 bits in the largest part (the carry of ``fit``), and is odd
    in the parts.  Some inputs are exact multiples of the norm."""
    rng = random.Random(31)
    for _ in range(2000):
        bits = rng.randint(2, 90)
        norm = rng.randint(1, 1 << rng.randint(1, 200))
        parts = [rng.randint(-(1 << 150), 1 << 150) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            parts = [x * norm for x in parts]
        if not any(parts):
            continue
        exp0 = rng.randint(-300, 300)
        got, exp = laurent.fit_quotient(parts, norm, exp0, bits)
        for x, y in zip(parts, got):
            assert y == round(Fraction(x, norm) * Fraction(2) ** (exp0 - exp)), (x, norm)
        assert max(map(abs, got)).bit_length() <= bits + 1
        assert laurent.fit_quotient([-x for x in parts], norm, exp0, bits) == (
            [-y for y in got], exp)


def _fraction(x):
    """An ``mpf`` as the Fraction it is."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def test_fixed_point_read_is_nearest_and_odd():
    """``read_fixed`` reads z, or 1/z when z 2^bits reads above 2^bits in
    modulus, onto 2^-bits to nearest, ties to even, as ``round`` does on the
    exact Fraction; so a part and its negation read to exact negatives.  (A
    floor, mpmath's ``to_fixed``, read s.real = 2^-100/3 at 256 bits as
    ...356 and its negation as -...357.)  About a third of the parts are
    exact ties, an odd number of half units of 2^-bits, and about a third
    of the points read inverted."""
    bits = 256 + laurent.GUARD_BITS
    with mp.workprec(256):
        small = mpf(2) ** -100 / 3
        for z in (mpc(small, 0), mpc(0, small), mpc(small, -small)):
            zr, zi, inverted = laurent.read_fixed(z, bits)
            assert not inverted and laurent.read_fixed(-z, bits) == (-zr, -zi, False)
            assert (zr, zi) == (round(_fraction(z.real) * 2 ** bits),
                                round(_fraction(z.imag) * 2 ** bits))
    rng = random.Random(27)
    for _ in range(2000):
        prec = rng.choice((64, 128, 256))
        bits = prec + laurent.GUARD_BITS

        def part():
            if rng.random() < 1 / 3:   # a tie: (2j + 1) / 2^(bits + 1)
                return mpf(2 * rng.getrandbits(prec - 1) + 1) * mpf(2) ** -(bits + 1)
            low = rng.choice((-2 * prec, -prec - 4))   # |z| from 2^-prec, or near 1
            return mpf(rng.getrandbits(prec) | 1) * mpf(2) ** rng.randint(low, 8 - prec)

        with mp.workprec(prec):
            z = mpc(part() * rng.choice((-1, 1)), part() * rng.choice((-1, 1)))
            minus_z = -z
        zr, zi, inverted = laurent.read_fixed(z, bits)
        assert laurent.read_fixed(minus_z, bits) == (-zr, -zi, inverted)
        x, y = _fraction(z.real), _fraction(z.imag)
        direct = (round(x * 2 ** bits), round(y * 2 ** bits))
        assert inverted == (direct[0] ** 2 + direct[1] ** 2 > 1 << 2 * bits)
        if inverted:
            norm = x * x + y * y
            x, y = x / norm, -y / norm
        assert (zr, zi) == (round(x * 2 ** bits), round(y * 2 ** bits)), (z, bits)


def test_gaussian_sweep_cuts_where_the_polynomial_sweep_does():
    """``swept_gaussian`` drops exact coefficients at or below 2^-(prec-8)
    times the largest magnitude and keeps those above, as the LaurentPoly
    sweep does with the same values."""
    top = 3 << 300
    cut = top >> (PREC - SWEEP_GUARD_BITS)   # exactly top * 2^-(prec-8)
    terms = {0: (top, 0), 1: (0, -cut), 2: (cut, 1 << 60), 3: (-cut - 1, 0),
             4: (0, 0), 5: (cut // 2, cut // 2)}
    kept = swept_gaussian(terms, PREC)
    assert sorted(kept) == [0, 2, 3]
    assert kept == {e: terms[e] for e in kept}
    poly = laurent.rounded(terms, -50, PREC)
    assert poly.support() == sorted(kept)
    assert swept_gaussian({}, PREC) == {}


@pytest.mark.parametrize("prec", (64, 192, 512))
def test_sweep_at_the_knife_edge(prec):
    """A coefficient exactly at the sweep cut 2^-(prec-8) * ||p|| is
    dropped, one unit above it kept and one unit below it dropped, by
    ``LaurentPoly`` from ``mpc`` values and by ``swept_gaussian`` from the
    same exact integers alike, for real, imaginary and complex coefficients;
    a non-finite part still raises ValueError, even beside a finite one."""
    g, unit = 40, -prec                 # the cut is 5 * 2^g units of 2^unit
    exact = {0: (3 << (prec - SWEEP_GUARD_BITS + g),
                 4 << (prec - SWEEP_GUARD_BITS + g))}
    kept = {0}
    e = 1
    for re, im in ((5, 0), (0, -5), (3, 4), (-4, 3)):
        re, im = re << g, im << g       # |re + i im| is the cut
        for delta in (0, 1, -1):
            # one unit further from zero, or nearer to it, in one part
            if re:
                exact[e] = (re + delta * (1 if re > 0 else -1), im)
            else:
                exact[e] = (re, im + delta * (1 if im > 0 else -1))
            if delta == 1:
                kept.add(e)
            e += 1
    terms = {e: mp.make_mpc((from_man_exp(re, unit), from_man_exp(im, unit)))
             for e, (re, im) in exact.items()}
    assert set(LaurentPoly(terms, prec).terms) == kept
    assert set(swept_gaussian(exact, prec)) == kept
    assert laurent.rounded(exact, unit, prec).support() == sorted(kept)
    with mp.workprec(prec):
        bad = (mpc(mpf("nan"), 1), mpc(1, mpf("inf")), mpc(mpf("-inf"), 0))
    for c in bad:
        with pytest.raises(ValueError):
            LaurentPoly({**terms, e: c}, prec)


def test_mul_matches_eval():
    rng = random.Random(7)
    t = mpc("0.83", "0.41")
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        lhs = laurent_value(p * q, t)
        with mp.workprec(PREC):
            rhs = laurent_value(p, t) * laurent_value(q, t)
        assert abs(lhs - rhs) < eps(140) * (1 + abs(rhs))


def test_ring_identities():
    rng = random.Random(11)
    p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
    t = mpc("0.5", "0.9")
    d = laurent_value((p + q) * r - (p * r + q * r), t)
    assert abs(d) < eps(140)


def test_division_recovers_factor():
    rng = random.Random(13)
    for _ in range(8):
        q0, d = rand_poly(rng), rand_poly(rng)
        num = q0 * d
        q, rel_rem = divide_with_remainder(num, d)
        assert rel_rem < mpf(2) ** (-150)
        diff = q - q0
        assert infnorm(diff) < eps(140) * (1 + infnorm(q0))


def test_division_detects_remainder():
    rng = random.Random(17)
    q0, d = rand_poly(rng), rand_poly(rng)
    num = q0 * d + LaurentPoly({d.min_exp - 1: 1}, PREC)
    q, rel_rem = divide_with_remainder(num, d)
    assert rel_rem > mpf("1e-10")
    assert not normalize_delta(q, "test", rel_rem).exact


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divide_with_remainder(LaurentPoly({0: 1}, PREC), LaurentPoly({}, PREC))


def test_laurent_negative_exponents_division():
    # units t^k divide anything exactly
    p = LaurentPoly({-3: 2, 0: 1, 4: -1}, PREC)
    unit = LaurentPoly({-2: 1}, PREC)
    q, rel_rem = divide_with_remainder(p, unit)
    assert rel_rem == 0
    assert q.support() == [-1, 2, 6]


def test_mat2_scalar_algebra():
    with mp.workprec(PREC):
        a = Mat2(mpc(2), mpc(1), mpc(0), mpc(3))
        ainv = mpc_inverse(a)
        prod = a * ainv
        assert abs(prod.a11 - 1) < eps(150)
        assert abs(prod.a12) < eps(150)
        assert abs(a.det() - 6) < eps(150)


def _det(rows):
    """``poly_mat_det`` of a matrix of LaurentPolys, each coefficient read
    as an exact Gaussian integer over the matrix's smallest power of two."""
    exact = [[(p.terms, p.shift) for p in row] for row in rows]
    base = min((s for row in exact for terms, s in row if terms), default=0)
    ints = [[{e: (re << (s - base), im << (s - base))
              for e, (re, im) in terms.items()} for terms, s in row]
            for row in exact]
    return poly_mat_det(ints, base, max(p.prec for row in rows for p in row))


def test_mat2_poly_det_and_cofactor():
    rng = random.Random(23)
    entries = [rand_poly(rng, 0, 3) for _ in range(4)]
    M = Mat2(*entries)
    direct = entries[0] * entries[3] - entries[1] * entries[2]
    assert infnorm(M.det() - direct) < eps(140) * (1 + infnorm(direct))
    rows = [[entries[0], entries[1]], [entries[2], entries[3]]]
    assert infnorm(_det(rows) - direct) < eps(140) * (1 + infnorm(direct))


def test_poly_mat_det_3x3_multiplicative():
    # det of a block-diagonal-ish product sanity: det(I) = 1
    one, zero = LaurentPoly({0: 1}, PREC), LaurentPoly({}, PREC)
    rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    d = _det(rows)
    assert d.support() == [0]
    assert abs(d.coeff(0) - 1) < eps(150)


def _leibniz_det(rows):
    """Sum over permutations of sign(perm) * prod_i rows[i][perm[i]]."""
    n = len(rows)
    total = LaurentPoly({}, PREC)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = LaurentPoly({0: 1}, PREC) * (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def _exact(p):
    """The coefficients of p as exact (re, im) Fractions."""
    def frac(x):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    return {e: (frac(c.real), frac(c.imag)) for e, c in coeffs(p).items()}


def _exact_mul(a, b):
    out = {}
    for e1, (r1, i1) in a.items():
        for e2, (r2, i2) in b.items():
            re, im = out.get(e1 + e2, (0, 0))
            out[e1 + e2] = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)
    return out


def _rounded(exact, prec):
    """Each exact dyadic part rounded to nearest at prec bits, then swept."""
    def to_mpf(x):
        return mpf((x.numerator, 1 - x.denominator.bit_length()))
    with mp.workprec(prec):
        terms = {e: mpc(to_mpf(re), to_mpf(im)) for e, (re, im) in exact.items()}
    return LaurentPoly(terms, prec)


def _bits(p):
    return {e: c._mpc_ for e, c in coeffs(p).items()}


def _mpc_mul(p, q):
    """The coefficient loop in mpc arithmetic, every multiply-add rounded."""
    prec = max(p.prec, q.prec)
    with mp.workprec(prec):
        acc = {}
        for e1, c1 in coeffs(p).items():
            for e2, c2 in coeffs(q).items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(acc, prec)


def _exact_leibniz_det(rows):
    n = len(rows)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = {0: (Fraction((-1) ** inversions), Fraction(0))}
        for i, j in enumerate(perm):
            term = _exact_mul(term, _exact(rows[i][j]))
        for e, (re, im) in term.items():
            r0, i0 = total.get(e, (0, 0))
            total[e] = (r0 + re, i0 + im)
    return total


def _near_cut_poly(rng, prec):
    """Random full-precision coefficients: at t^1..t^3 of order 1, at t^0
    smaller, at t^-4..t^-1 between 2 and 2^5 times the polynomial's own
    sweep cut 2^-(prec-8) * ||p||, so the polynomial keeps them.  A product
    of two of them then has low coefficients on both sides of its own cut:
    at t^-4 (low times t^0) mostly below, at t^-3..t^-1 above."""
    def part(exp):
        # a prec-bit mantissa with its top bit set: |part| in [2^(exp-1), 2^exp)
        man = 2 ** (prec - 1) + rng.getrandbits(prec - 1)
        return mpf((rng.choice((-1, 1)) * man, exp - prec))

    with mp.workprec(prec):
        exps = {e: rng.choice((-1, 0, 1)) for e in (1, 2, 3)}
        exps[0] = rng.choice((-40, -5, -3))
        top = max(exps.values()) - prec + SWEEP_GUARD_BITS
        exps.update({e: top + rng.choice((2, 3, 4)) for e in range(-4, 0)})
        p = LaurentPoly({e: mpc(part(x), part(x)) for e, x in exps.items()}, prec)
    assert p.support() == list(range(-4, 4))
    return p


def _cut_sides(exact, prec):
    """How many of the exact coefficients lie within a factor 2^4 below the
    sweep cut, and how many within 2^4 above it: (below, above)."""
    abs2 = [re * re + im * im for re, im in exact.values()]
    cut2 = max(abs2) / Fraction(4) ** (prec - SWEEP_GUARD_BITS)
    below = sum(cut2 / 256 < a2 <= cut2 for a2 in abs2)
    above = sum(cut2 < a2 <= cut2 * 256 for a2 in abs2)
    return below, above


@pytest.mark.parametrize("prec", (64, 192, 512))
def test_mul_is_the_correctly_rounded_exact_convolution(prec):
    rng = random.Random(prec)
    below = above = 0
    for _ in range(12):
        p, q = _near_cut_poly(rng, prec), _near_cut_poly(rng, prec)
        prod = p * q
        exact = _exact_mul(_exact(p), _exact(q))
        assert _bits(prod) == _bits(_rounded(exact, prec))
        b, a = _cut_sides(exact, prec)
        below, above = below + b, above + a
        # the mpc loop rounds every multiply-add; it agrees to a few ulps of
        # the largest coefficient
        ref = _mpc_mul(p, q)
        assert infnorm(prod - ref) <= eps(prec - 8) * infnorm(ref)
    # the sweep decided near its cut, both ways
    assert below and above


def test_poly_mat_det_4x4_shared_minors():
    rng = random.Random(29)
    rows = [[rand_poly(rng, -1, 2) for _ in range(4)] for _ in range(4)]
    d = _det(rows)
    leibniz = _leibniz_det(rows)
    assert d.support() == leibniz.support()
    assert infnorm(d - leibniz) < eps(140) * (1 + infnorm(leibniz))
    # the expansion is exact and rounds once, so the bits are those of the
    # correctly rounded exact determinant
    assert _bits(d) == _bits(_rounded(_exact_leibniz_det(rows), PREC))


@pytest.mark.parametrize("bad", (mpf("nan"), mpf("inf"), mpc(0, "-inf")))
def test_non_finite_coefficients_refused(bad):
    """No polynomial holds a non-finite coefficient: building one raises
    ValueError, whether directly or by lifting a scalar, and what shifts
    and products return is finite."""
    p = LaurentPoly({0: 1, 1: 2}, PREC)
    for build in (lambda: LaurentPoly({0: 1, 2: bad}, PREC),
                  lambda: p * bad, lambda: bad * p,
                  lambda: p + bad, lambda: p - bad):
        with pytest.raises(ValueError):
            build()
    # a product whose coefficients outgrow any float exponent stays finite
    huge = LaurentPoly({0: mpf(2) ** 10 ** 6, 1: 1}, PREC) * p
    assert huge.support() == [0, 1]
    for q in (huge, huge.shifted(-5), -huge):
        assert all(mp.isfinite(c) for c in coeffs(q).values())


def test_exact_division_refuses_a_nan_remainder(monkeypatch):
    """A Fox route whose division reports a NaN remainder is not exact."""
    ctx = cached_contexts(2, STD_M[0])[0]
    monkeypatch.setattr(fox, "divide_with_remainder",
                        lambda n, d: (n, mpf("nan")))
    assert not wada_polynomial(build_holonomy_rep(ctx, "two"), 1).exact


def test_exactness_is_the_half_precision_bound():
    """``DeltaResult.exact`` accepts a remainder up to 2^-(prec/2) of the
    polynomial's precision and refuses one above it."""
    poly = LaurentPoly({0: 1, 1: 1}, PREC)
    tol = half_prec_tol(PREC)
    assert tol == mpf(2) ** -(PREC // 2)
    assert normalize_delta(poly, "test", mpf(0)).exact
    assert normalize_delta(poly, "test", tol).exact
    assert not normalize_delta(poly, "test", 2 * tol).exact


def test_normalize_delta_unit_bookkeeping():
    p = LaurentPoly({-3: -1, -1: 2, 4: -1}, PREC)
    res = normalize_delta(p, "test", 0)
    assert res.poly.min_exp == 0
    assert res.sign == -1 and res.shift == 3
    # raw = sign * t^(-shift) * poly reconstructs the input
    rebuilt = (res.poly * res.sign).shifted(-res.shift)
    assert infnorm(rebuilt - p) < eps(150)


def test_normalize_delta_never_rescales():
    p = LaurentPoly({0: mpc("2.5"), 2: 1}, PREC)
    res = normalize_delta(p, "test", 0)
    assert abs(res.poly.coeff(0) - mpf("2.5")) < eps(150)


# The 1024-bit run is the reference.  These roots are the worst of the
# 24 per m at n = 5: rounding every multiply-add of the determinant, they
# were 4.4e-68, 2.0e-68 and 3.2e-71 off.
@pytest.mark.parametrize("m_pair, index", ((STD_M[0], 22), (STD_M[0], 13),
                                           (STD_M[1], 13)),
                         ids=("m0-root22", "m0-root13", "m1-root13"))
def test_three_generator_wada_accuracy_at_256_bits(m_pair, index):
    polys = []
    for prec in (256, 1024):
        ctx = cached_roots(5, m_pair, prec)[1][index]
        assert not ctx.flags
        polys.append(wada_polynomial(build_holonomy_rep(ctx, "three"), 0).poly)
    assert coefficient_deviation(*polys) < mpf("1e-69")


def _deviation_formula(p, q, prec):
    """max over e of |p_e - q_e| / max(1, |p_e|, |q_e|), term by term in
    ``mpc`` at ``prec`` bits."""
    worst = mpf(0)
    with mp.workprec(prec):
        for e in set(p.terms) | set(q.terms):
            a, b = p.coeff(e), q.coeff(e)
            worst = max(worst, abs(a - b) / max(mpf(1), abs(a), abs(b)))
    return worst


def _deviation_cases(rng, prec):
    """Pairs of polynomials: near-equal ones with coefficients on both sides
    of |c| = 1, unrelated ones, disjoint supports, the zero polynomial, and
    coefficients of magnitude exactly 1 with partners just above and below."""
    def scaled(p, lo, hi):
        with mp.workprec(prec):
            return LaurentPoly({e: c * mpf(2) ** rng.randint(lo, hi)
                                for e, c in coeffs(p).items()}, prec)

    def nudged(p, size):
        with mp.workprec(prec):
            return LaurentPoly({e: c * (1 + size * mpc(rng.uniform(-1, 1),
                                                       rng.uniform(-1, 1)))
                                for e, c in coeffs(p).items()}, prec)

    zero = LaurentPoly({}, prec)
    for _ in range(6):
        p = scaled(rand_poly(rng, prec=prec), -4, 4)
        yield p, nudged(p, mpf(2) ** -(prec // 2))
        yield p, scaled(rand_poly(rng, prec=prec), -4, 4)
        yield p, zero
        yield zero, p
    yield zero, zero
    yield (LaurentPoly({0: 1, 2: 3}, prec), LaurentPoly({1: 1, 3: mpf("0.25")}, prec))
    with mp.workprec(prec):
        tiny = mpf(2) ** -(prec - 2)
        for c in (mpc(1), mpc(0, -1), mpc(-1)):
            for d in (c * (1 + tiny), c * (1 - tiny), c + 1j * tiny):
                yield LaurentPoly({0: c, 1: 1}, prec), LaurentPoly({0: d, 1: 1}, prec)


@pytest.mark.parametrize("prec", (64, 256))
def test_coefficient_deviation_is_the_formula_within_one_ulp(prec):
    """``coefficient_deviation`` (squared magnitudes, one square root) is
    within one unit in the last place, at the larger operand precision, of
    the per-coefficient formula evaluated at twice that precision."""
    rng = random.Random(prec + 1)
    for p, q in _deviation_cases(rng, prec):
        for a, b in ((p, q), (q, p)):
            got = coefficient_deviation(a, b)
            want = _deviation_formula(a, b, 2 * prec)
            if not want:
                assert got == 0
                continue
            _, man, exp, bc = want._mpf_
            assert abs(got - want) <= mpf(2) ** (exp + bc - prec), (a, b)
    # mixed precisions compare at the larger one
    p = rand_poly(rng, prec=prec)
    q = LaurentPoly(coeffs(p), 2 * prec)
    with mp.workprec(2 * prec):
        q = q + LaurentPoly({0: mpf(2) ** -(prec + 20)}, 2 * prec)
    got, want = coefficient_deviation(p, q), _deviation_formula(p, q, 4 * prec)
    _, man, exp, bc = want._mpf_
    assert abs(got - want) <= mpf(2) ** (exp + bc - 2 * prec)


def _cross_multiplied_deviation(p, q):
    """``coefficient_deviation`` as it was written before the bit-length
    test: every ratio compared cross-multiplied."""
    keys = list(p.terms.keys() | q.terms.keys())
    base = min([0] + [x.shift for x in (p, q) if x.terms])

    def parts(x):
        up = x.shift - base
        return [(re << up, im << up)
                for re, im in (x.terms.get(e, (0, 0)) for e in keys)]

    one2 = 1 << -2 * base
    worst_d2, worst_s2 = 0, 1
    for (ar, ai), (br, bi) in zip(parts(p), parts(q)):
        dr, di = ar - br, ai - bi
        s2, d2 = max(one2, ar * ar + ai * ai, br * br + bi * bi), dr * dr + di * di
        if d2 * worst_s2 > worst_d2 * s2:
            worst_d2, worst_s2 = d2, s2
    return laurent.sqrt_ratio(worst_d2, worst_s2, 0, max(p.prec, q.prec))


def _close_ratio_cases(rng, prec):
    """Pairs whose per-coefficient ratios lie within a factor of 8 of one
    another, so that bit lengths alone often cannot order them."""
    for _ in range(8):
        p = rand_poly(rng, -3, 30, 1.0, prec)
        with mp.workprec(prec):
            q = LaurentPoly({e: c * (1 + mpf(rng.uniform(0.5, 4)) * 2 ** -(prec // 3))
                             for e, c in coeffs(p).items()}, prec)
        yield p, q


@pytest.mark.parametrize("prec", (64, 256))
def test_coefficient_deviation_is_the_cross_multiplied_one(prec):
    """Deciding a comparison by bit lengths where they suffice changes no
    bit of ``coefficient_deviation``: it equals the cross-multiplied
    comparison on random pairs, on pairs of nearly equal ratios, and on the
    three routes and the Fox alternatives at real roots."""
    rng = random.Random(prec + 7)
    pairs = list(_deviation_cases(rng, prec)) + list(_close_ratio_cases(rng, prec))
    for n in (1, 2, 3):
        for ctx in cached_contexts(n, STD_M[0])[:2]:
            rep = build_holonomy_rep(ctx, "two")
            fox_, alt = (wada_polynomial(rep, k).poly for k in (1, 0))
            three = wada_polynomial(build_holonomy_rep(ctx, "three"), 0).poly
            theorem, prop32 = delta_theorem(ctx).poly, delta_prop32(ctx).poly
            pairs += [(fox_, theorem), (fox_, prop32), (theorem, prop32),
                      (fox_, alt), (fox_, three)]
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            got = coefficient_deviation(a, b)
            assert got._mpf_ == _cross_multiplied_deviation(a, b)._mpf_, (a, b)


def _mpc_long_division(num, den, work):
    """The former ``divide_with_remainder``, in ``mpc`` arithmetic at
    ``work`` bits: every quotient coefficient and every multiply-subtract is
    rounded, and a partial remainder at or below the operands' sweep cut
    2^-(prec-8) * ||num|| is dropped.  Returns (quotient at ``work`` bits,
    relative remainder)."""
    prec = max(num.prec, den.prec)
    with mp.workprec(work):
        num_c, den_c = coeffs(num), coeffs(den)
        norm = max(abs(c) for c in num_c.values())
        cut = norm * mpf(2) ** -(prec - SWEEP_GUARD_BITS)
        dmax, qmin = den.max_exp, num.min_exp - den.min_exp
        tail = [(e, c) for e, c in den_c.items() if e != dmax]
        rem, quot = num_c, {}
        while rem:
            e = max(rem)
            if e - dmax < qmin:
                break
            co = quot[e - dmax] = rem.pop(e) / den_c[dmax]
            for ee, c in tail:
                k = e - dmax + ee
                w = rem.get(k, 0) - co * c
                if abs(w) > cut:
                    rem[k] = w
                else:
                    rem.pop(k, None)
        rel = max((abs(c) for c in rem.values()), default=mpf(0)) / norm
    return LaurentPoly(quot, work), rel


@pytest.mark.parametrize("n, prec", ((3, 256), (5, 256), (2, 512)))
def test_integer_division_is_no_less_accurate_than_the_mpc_division(
        monkeypatch, n, prec):
    """The three Wada quotients ``check_context`` forms at every
    nondegenerate root of both standard m, divided in Gaussian integers:
    against the same long division run in ``mpc`` at 1024 bits (same cut),
    each quotient is within 2^-(prec-1) per coefficient and no further off
    than the ``mpc`` division at ``prec`` bits, and the remainders agree."""
    calls = []

    def spy(num, den):
        calls.append((num, den))
        return divide_with_remainder(num, den)

    monkeypatch.setattr(fox, "divide_with_remainder", spy)
    contexts = [ctx for m_pair in STD_M for ctx in cached_contexts(n, m_pair, prec)]
    for ctx in contexts:
        for kind, k in (("two", 1), ("two", 0), ("three", 0)):
            wada_polynomial(build_holonomy_rep(ctx, kind), k)
    assert len(calls) == 3 * len(contexts) > 0
    for num, den in calls:
        quot, rem = divide_with_remainder(num, den)
        old, _ = _mpc_long_division(num, den, prec)
        ref, ref_rem = _mpc_long_division(num, den, 1024)
        err = coefficient_deviation(quot, ref)
        assert err <= eps(prec - 1)
        assert err <= coefficient_deviation(old, ref)
        assert abs(rem - ref_rem) <= mpf("1e-9") * ref_rem


def _four_products_into(acc, a, b, sign):
    """acc += sign * a * b with four integer products per pair of terms,
    as the convolution was written before the three-product form."""
    for e1, (r1, i1) in a.items():
        if sign < 0:
            r1, i1 = -r1, -i1
        for e2, (r2, i2) in b.items():
            re, im = acc.get(e1 + e2, (0, 0))
            acc[e1 + e2] = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)


@pytest.mark.parametrize("prec", (128, 256, 512))
def test_three_product_convolution_is_the_four_product_one(monkeypatch, prec):
    """``poly_mat_det`` on three-generator Fox matrices and ``LaurentPoly``
    products give the same bits with three integer products per pair of
    terms as with four."""
    calls = []

    def spy(rows, shift, det_prec):
        calls.append((rows, shift, det_prec))
        return poly_mat_det(rows, shift, det_prec)

    monkeypatch.setattr(fox, "poly_mat_det", spy)
    for ctx in cached_contexts(3, STD_M[0], prec)[:3]:
        wada_polynomial(build_holonomy_rep(ctx, "three"), 0)
    rng = random.Random(prec)
    pairs = [(_near_cut_poly(rng, prec), rand_poly(rng, prec=prec))
             for _ in range(6)]
    dets = [_bits(poly_mat_det(*call)) for call in calls]
    products = [_bits(p * q) for p, q in pairs]
    monkeypatch.setattr(laurent, "convolve_into", _four_products_into)
    assert len(calls) == 3 and all(len(rows) == 4 for rows, _, _ in calls)
    assert dets == [_bits(poly_mat_det(*call)) for call in calls]
    assert products == [_bits(p * q) for p, q in pairs]
