"""The knot-family layer: exact polynomial builders, root solving,
representation construction, and the certification identities."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from pathlib import Path

import pytest
from mpmath import mp, mpf, mpc

from talex import (DegenerateContext, PretzelContext, build_context,
                   delta_theorem, select_root, solve_s_roots)
from talex import pretzel
from talex.errors import NonConvergence
from talex.laurent import gaussian
from talex.pretzel import (FORMS, MAX_N, BivarPoly, _N, _at, alpha_polynomial,
                           beta_polynomial, build_holonomy_rep, certified_roots,
                           eta1_polynomial, eta2_polynomial, h_polynomial,
                           presentation_three_gen, presentation_two_gen,
                           r0_cofactor, r0_polynomial, r1_polynomial)
from conftest import (STD_M, cached_contexts, cached_roots, eps, exact_matrix, m_at,
                      m_degree, m_reversed, mpc_matrix, round_to_bits, walked_residual)

import oracles
import root_sweep


def rand_ms(rng):
    m = mpc(rng.uniform(0.5, 1.5), rng.uniform(-0.8, 0.8))
    s = mpc(rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2))
    return m, s


# -- BivarPoly basics -------------------------------------------------------


def test_bivar_arithmetic_exact():
    p = BivarPoly({(0, 0): 1, (1, 2): -3})
    q = BivarPoly({(2, 1): 2})
    assert (p + q - q) == p
    assert (p * q).terms == {(2, 1): 2, (3, 3): -6}
    assert (p * 0).terms == {}
    assert p.shift(s_exp=1, m_exp=1).terms == {(1, 1): 1, (2, 3): -3}


def test_bivar_eval_matches_horner():
    rng = random.Random(5)
    p = BivarPoly({(0, 0): 3, (2, 1): -1, (5, 4): 7})
    for _ in range(5):
        m, s = rand_ms(rng)
        with mp.workprec(256):
            got, scale = p.eval(m, s)
        with mp.workprec(300):
            direct = 3 - s ** 2 * m + 7 * s ** 5 * m ** 4
            assert abs(got - direct) < eps(200) * scale


def test_eval_rows_are_keyed_by_m_and_precision():
    """``eval`` keeps the rows of the last (m, precision) it saw.  A new m
    at the same precision, or the same m at a new precision, must rebuild
    them: every result is bit for bit that of a fresh polynomial with no
    rows yet, and of a copy that holds the same terms in reversed order."""
    terms = alpha_polynomial(3).terms
    alpha = BivarPoly(terms)
    with mp.workprec(256):
        m1, m2, s = mpc("1.2", "0.4"), mpc("0.9", "-0.2"), mpc("0.7", "0.5")
    for m, prec in ((m1, 256), (m2, 256), (m1, 512), (m1, 256)):
        with mp.workprec(prec):
            assert alpha.eval(m, s) == BivarPoly(terms).eval(m, s)
            reversed_copy = BivarPoly(dict(reversed(terms.items())))
            assert reversed_copy.eval(m, s) == alpha.eval(m, s)


@pytest.mark.parametrize("bits", (64, 256, 512, 1024))
def test_fixed_row_magnitudes_are_the_square_roots(bits, monkeypatch):
    """The magnitude column of ``_fixed_row``, taken before its ``fit``,
    holds each |m|^b as isqrt(norm^b << 2 bits), norm = |m|^2 of m read
    exactly, bit for bit, for b = 0..20: an even b takes norm^(b/2) <<
    bits, the same integer.  At random m, at m of ``bits`` bits, and at
    tiny and large |m|."""
    monkeypatch.setattr(pretzel, "fit", lambda parts, exp, bits: (parts, exp))
    poly = BivarPoly({(b, b): 1 for b in range(21)})
    rng = random.Random(bits)
    ms = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
    ms += [mpc("1e-30", "3e-31"), mpc("-2e-5", 0), mpc("3e20", "-1e19"), mpc(0, "7e4")]
    with mp.workprec(bits):
        ms += [mpc(mpf(1) / 3, mpf(-2) / 7), mpc(mpf(10) ** -40 / 3, 0)]
    for m in ms:
        row, _, _ = poly._fixed_row(m, bits)
        (mr, mi), e = gaussian([m])
        norm, base = mr * mr + mi * mi, min(0, 20 * e)
        assert [mag for _, _, mag in row] == [isqrt(norm ** b << 2 * bits) << b * e - base
                                              for b in range(20, -1, -1)], m


def _gauss_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _exact_value(poly, m, s, bits):
    """poly(m, s) for m = M / 2^bits and s = S / 2^bits, M and S Gaussian
    integers given as (re, im) pairs, as (re, im) Fractions."""
    A, B = poly.s_degree(), m_degree(poly)
    mpow, spow = [(1, 0)], [(1, 0)]
    for _ in range(B):
        mpow.append(_gauss_mul(mpow[-1], m))
    for _ in range(A):
        spow.append(_gauss_mul(spow[-1], s))
    re = im = 0
    for (a, b), v in poly.terms.items():
        x = _gauss_mul(spow[a], mpow[b])
        shift = bits * (A - a + B - b)
        re += v * x[0] << shift
        im += v * x[1] << shift
    den = 1 << bits * (A + B)
    return Fraction(re, den), Fraction(im, den)


def test_eval_accuracy_against_exact_arithmetic():
    """At binary-rational (m, s), exact at every precision used, the value
    lies within 8 (d + 1) 2^-prec of the scale from the exact value (Gaussian
    rationals), and the scale is the sum of the term magnitudes at |m|, |s|
    to relative 2^-(prec - 10) (that sum taken at 2 prec + 64 bits)."""
    rng = random.Random(11)
    bits = 20
    builders = (r0_polynomial, alpha_polynomial, beta_polynomial,
                h_polynomial, eta1_polynomial, eta2_polynomial, r1_polynomial)
    for n in range(1, 6):
        for prec in (128, 256, 512):
            M = (rng.randint(2 ** 19, 3 * 2 ** 19), rng.randint(-2 ** 19, 2 ** 19))
            S = (rng.randint(-3 * 2 ** 19, 3 * 2 ** 19),
                 rng.randint(-3 * 2 ** 19, 3 * 2 ** 19))
            with mp.workprec(prec):
                m = mpc(*M) / 2 ** bits
                s = mpc(*S) / 2 ** bits
            for build in builders:
                poly = build(n)
                with mp.workprec(prec):
                    value, scale = poly.eval(m, s)
                re, im = _exact_value(poly, M, S, bits)
                with mp.workprec(2 * prec + 64):
                    exact = mpc(mpf(re.numerator) / re.denominator,
                                mpf(im.numerator) / im.denominator)
                    exact_scale = sum(abs(v) * abs(m) ** b * abs(s) ** a
                                      for (a, b), v in poly.terms.items())
                    d = poly.s_degree()
                    assert abs(value - exact) <= 8 * (d + 1) * eps(prec) * scale
                    assert abs(scale - exact_scale) <= eps(prec - 10) * exact_scale


EXTREME_M = (("0.0195", "0.003"), ("24.7", "3.7"))


def _negative_exponents(n):
    """beta shifted so that its s-exponents all lie below 0: s^power in
    ``eval`` is then a power of 1/s on both the row and the reversed row."""
    beta = beta_polynomial(n)
    return beta.shift(s_exp=-beta.s_degree() - 1)


EVALUATED = (alpha_polynomial, beta_polynomial, h_polynomial, eta1_polynomial,
             eta2_polynomial, r1_polynomial, r0_polynomial, _negative_exponents)


def _mpc_row(poly, m):
    """The coefficient row (leading first) and s-valuation of ``poly`` at
    m as the evaluator built it before its integer rows: each entry the
    ``mpc`` sum of v m^b at the ambient precision, leading m-power first."""
    lo, hi = poly.s_valuation(), poly.s_degree()
    row = [mpc(0)] * (hi - lo + 1)
    for (a, b), v in sorted(poly.terms.items(), reverse=True):
        row[hi - a] += v * m ** b
    return row, lo


@lru_cache(maxsize=None)
def _evaluation_points(n):
    """{m_pair: roots s at 256 bits} for both standard m and the two
    extreme ones."""
    return {pair: [rec.s for rec in cached_roots(n, pair)[1]]
            for pair in STD_M + EXTREME_M}


def _spread_points():
    """Points s with |s| from 2^-12 to 2569 on scattered rays; the only
    points at n = 16, whose roots take the solver seconds per m."""
    rng = random.Random(16)
    with mp.workprec(256):
        return [mpc(r * mp.cos(t), r * mp.sin(t))
                for r in [mpf(2) ** k for k in range(-12, 12, 3)] + [mpf(2569)]
                for t in [rng.uniform(0, 7)]]


@pytest.mark.parametrize("n, precs", [(n, (128, 256, 512)) for n in (1, 2, 5)]
                         + [(8, (256,)), (16, (128, 256, 512))])
def test_integer_horner_is_no_less_accurate_than_polyval(n, precs):
    """alpha, beta, H, eta_1, eta_2, r1, r0 and a polynomial with only
    negative s-exponents at every root of both standard m and two extreme
    ones (not at n = 16) and at the spread points, |s| from 2^-12 to 2569
    (not at n = 8), at 128, 256 and 512 bits (n = 8 at 256 only, for
    time): ``eval`` is off from ``mp.polyval`` of the same row at 3 prec
    bits by no more, in units of 2^-prec of the scale, than ``mp.polyval``
    at prec bits of the row summed in ``mpc`` was (measured: at most 1.0
    unit against up to 12); and |s| > 1 takes the reversed row."""
    spread = _spread_points() if n != 8 else []
    if n == 16:
        points = {pair: spread for pair in STD_M + EXTREME_M}
    else:
        points = {pair: roots + spread for pair, roots in _evaluation_points(n).items()}
    largest = 0
    for pair, roots in points.items():
        for prec in precs:
            m = m_at(*pair, prec=prec)
            with mp.workprec(prec):
                roots = [+s for s in roots]
            largest = max([largest] + [abs(s) for s in roots])
            new = old = 0
            for build in EVALUATED:
                poly = build(n)
                with mp.workprec(prec):
                    row, val = _mpc_row(poly, m)
                with mp.workprec(3 * prec):
                    ref_row, _ = _mpc_row(poly, m)
                for s in roots:
                    if val < 0 and not s:   # a pole
                        continue
                    with mp.workprec(prec):
                        value, scale = poly.eval(m, s)
                        before = mp.polyval(row, s) * s ** val
                    if not scale:   # s = 0 and s^val divides poly
                        assert value == before == 0
                        continue
                    with mp.workprec(3 * prec):
                        ref = mp.polyval(ref_row, s) * s ** val
                        unit = scale * eps(prec)
                        new = max(new, abs(value - ref) / unit)
                        old = max(old, abs(before - ref) / unit)
            assert new <= old, (pair, prec, new, old)
    assert largest > (2000 if n == 16 else 1)


def s_minus(root):
    return BivarPoly({(1, 0): 1, (0, 0): -root})


def test_divmod_s():
    # (s - 1)(s^2 m + 2) expanded, then divided back
    p = BivarPoly({(3, 1): 1, (2, 1): -1, (1, 0): 2, (0, 0): -2})
    q, rem = p.divmod_s(s_minus(1))
    assert rem == BivarPoly()
    assert q.terms == {(2, 1): 1, (0, 0): 2}
    _, rem2 = p.divmod_s(s_minus(2))
    assert rem2 != BivarPoly()
    # a divisor with m in its lower coefficients, and a nonzero remainder
    divisor = BivarPoly({(2, 0): 1, (1, 1): -3, (0, -1): 2})
    q, rem = p.divmod_s(divisor)
    assert q * divisor + rem == p
    assert rem.s_degree() < divisor.s_degree()
    assert q.terms == {(1, 1): 1, (0, 2): 3, (0, 1): -1}
    for not_monic in (BivarPoly(), 2 * s_minus(1), s_minus(1).shift(m_exp=1),
                      s_minus(1) + BivarPoly({(1, 2): 1})):
        with pytest.raises(ValueError):
            p.divmod_s(not_monic)
    # s^40 - 3^40 = (s - 3) (s^39 + 3 s^38 + ... + 3^39); the same quotient
    # for s^40 - 1 would need coefficients beyond Mignotte's bound for a
    # factor of s^40 - 1, so that division is refused
    q, rem = BivarPoly({(40, 0): 1, (0, 0): -3 ** 40}).divmod_s(s_minus(3))
    assert rem == BivarPoly() and q.terms[(0, 0)] == 3 ** 39
    with pytest.raises(ArithmeticError):
        BivarPoly({(40, 0): 1, (0, 0): -1}).divmod_s(s_minus(3))


def _one_sign_flipped(poly):
    """poly with the sign of its first term, in sorted order, flipped."""
    key = min(poly.terms)
    return BivarPoly({**poly.terms, key: -poly.terms[key]})


_DEFLATION = BivarPoly({(5, 0): 1, (4, 0): 1, (3, 0): -2, (2, 0): -2,
                        (1, 0): 1, (0, 0): 1})


@pytest.mark.parametrize("name", ("r0 at n=5", "form", "form, unshifted divisor"))
def test_divmod_s_stops_at_the_exact_quotients_valuation(monkeypatch, name):
    """A division that is not exact stops before a quotient term falls
    below val(self) - val(divisor), the valuation of an exact quotient:
    the identity self = q * divisor + rem holds, rem is nonzero, and the
    quotient's terms lie between that valuation and deg(self) - deg(divisor),
    one per column and m-power.  ``r0_cofactor`` still refuses the mutated
    r0 with ArithmeticError."""
    exact = r0_polynomial(5) if name == "r0 at n=5" else FORMS["r0"]
    divisor = _DEFLATION if "unshifted" in name else _DEFLATION.shift(
        s_exp=exact.s_valuation())
    assert exact.divmod_s(divisor)[1] == BivarPoly()
    bad = _one_sign_flipped(exact)
    q, rem = bad.divmod_s(divisor)
    assert rem != BivarPoly()
    assert q * divisor + rem == bad
    lo = bad.s_valuation() - divisor.s_valuation()
    hi = bad.s_degree() - divisor.s_degree()
    assert all(lo <= a <= hi for a, _ in q.terms)
    assert len(q.terms) <= (hi - lo + 1) * (m_degree(bad) + 1)
    if "unshifted" in name:
        assert lo > 0 and min(a for a, _ in q.terms) == lo
    if name == "r0 at n=5":
        monkeypatch.setattr(pretzel, "r0_polynomial", lambda n: bad)
        with pytest.raises(ArithmeticError):
            r0_cofactor.__wrapped__(5)


# The flipped-sign division of forms that once grew its integers until it
# ran out of memory: r1 m^4 by r0 m^-4 with r0's top m^6 term negated.
_RUNAWAY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from talex.pretzel import FORMS, BivarPoly
alpha, beta, r0 = FORMS["alpha"], FORMS["beta"], FORMS["r0"]
t_aa, t_ab, t_bb = FORMS["r1"]
r1 = -(alpha * alpha * t_aa) + alpha * beta * t_ab + beta * beta * t_bb
key = max(k for k in r0.terms if k[1] == 6)
bad = BivarPoly({**r0.terms, key: -r0.terms[key]})
try:
    r1.shift(m_exp=4).divmod_s(bad.shift(m_exp=-4))
except ArithmeticError:
    sys.exit(0)
sys.exit(1)
"""


def test_divmod_s_refuses_a_runaway_division():
    """A division of forms that is not exact, whose wrong quotient terms
    spread without end (MemoryError under a 1.5 GB cap before the bounds of
    ``divmod_s``), raises ArithmeticError within seconds in a child process
    whose address space alone is capped at 1 GB."""
    src = str(Path(pretzel.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", _RUNAWAY], capture_output=True,
                           text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": src})
    assert child.returncode == 0, child.stderr


# -- exact structural identities of the defining polynomial -----------------


@pytest.mark.parametrize("n", range(1, 13))
def test_r0_m_palindromic_exact(n):
    """r0 is even and palindromic in m; its cofactor q is palindromic in s:
    the coefficient of s^a m^b equals that of s^(d - a) m^b."""
    r0 = r0_polynomial(n)
    assert m_reversed(r0, 8) == r0
    assert m_degree(r0) <= 8
    assert all(b % 2 == 0 for (_, b) in r0.terms)
    _, q = r0_cofactor(n)
    d = q.s_degree()
    assert BivarPoly({(d - a, b): v for (a, b), v in q.terms.items()}) == q


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_cofactor_has_a_repeated_factor_at_m_i(n):
    """At m = +-i the cofactor is divisible by P^2, P = 1 + s + ... + s^2n,
    in integers (q is even in m, so m^b = (-1)^(b/2) there).  Its roots are
    then double, and no precision isolates them in disjoint discs."""
    _, q = r0_cofactor(n)
    coeffs = {}
    for (a, b), v in q.terms.items():
        assert b % 2 == 0
        coeffs[a] = coeffs.get(a, 0) + v * (-1) ** (b // 2)
    at_i = BivarPoly({(a, 0): v for a, v in coeffs.items()})
    P = BivarPoly({(k, 0): 1 for k in range(2 * n + 1)})
    for _ in range(2):
        at_i, rem = at_i.divmod_s(P)
        assert rem == BivarPoly()


@pytest.mark.parametrize("n", range(1, 9))
def test_r0_s_pm1_roots_exact(n):
    """r0 = s^val (s - 1)^2 (s + 1)^3 q exactly, and q(m, s) vanishes
    identically at none of s = 0, 1, -1: the multiplicities are exact."""
    r0 = r0_polynomial(n)
    val, q = r0_cofactor(n)
    assert val == r0.s_valuation()
    factor = BivarPoly({(val, 0): 1})
    for root in (1, 1, -1, -1, -1):
        factor = factor * s_minus(root)
    assert q * factor == r0
    assert q.s_valuation() == 0
    for root in (1, -1):
        _, rem = q.divmod_s(s_minus(root))
        assert rem != BivarPoly(), f"s={root} has a higher multiplicity at n={n}"
    assert q.s_degree() == {1: 6, 2: 8}.get(n, 6 * n - 6)


def mono(s_exp, m_exp=0):
    return BivarPoly({(s_exp, m_exp): 1})


def zetas(H, eta1, eta2, alpha, beta, S2):
    """zeta_1 and zeta_2 as ``zeta_vanishing`` writes them, over BivarPolys;
    S2 stands for s^(2n)."""
    one, s, m = mono(0), mono(1), mono(0, 1)
    zeta1 = m * (m * m + one) * s * (s + one) * (
        H * S2 * beta - s * (S2 - one) * eta1 - (s * S2 - one) * eta2)
    zeta2 = (H * m * m * s * (m * alpha - m * s * s * alpha + s * beta + S2 * beta)
             - (s * s - one) * (m * m * eta1 + m * m * s * s * s * eta1
                                + s * eta2 + m * m * s * eta2))
    return zeta1, zeta2


@pytest.mark.parametrize("n", range(1, 9))
def test_r1_is_a_multiple_of_r0_exact(n):
    """r1 = Q r0 in Z[m^+-1][s]: r0's leading s-coefficient is exactly m^4,
    so r0 m^-4 is monic in s and r1 divided by it leaves no remainder.  The
    same holds for zeta_2, written out as ``zeta_vanishing`` computes it
    from the exact H, eta_1, eta_2, alpha and beta, and zeta_1 is exactly
    zero."""
    r0 = r0_polynomial(n)
    d = r0.s_degree()
    assert {b: v for (a, b), v in r0.terms.items() if a == d} == {4: 1}
    monic = r0.shift(m_exp=-4)
    _, rem = r1_polynomial(n).divmod_s(monic)
    assert rem == BivarPoly()

    zeta1, zeta2 = zetas(h_polynomial(n), eta1_polynomial(n), eta2_polynomial(n),
                         alpha_polynomial(n), beta_polynomial(n), mono(2 * n))
    assert zeta1 == BivarPoly()
    assert zeta2 != BivarPoly()
    _, rem = zeta2.divmod_s(monic)
    assert rem == BivarPoly()


# -- the same identities for every n at once, on the forms ------------------
#
# A form is a polynomial in s, U = s^n and m, stored with U = s^_N (see
# ``pretzel.FORMS``).  An identity between forms holds at every integer n,
# since the builders substitute U = s^n, a ring homomorphism.


def u_split(form):
    """{(k, a, b): v} for the terms v U^k s^a m^b of a form, each s-offset a
    within _N/16.  A product's offsets are sums of its factors' offsets, so
    the products below (whose factors' offsets add up to a few dozen at
    most) keep theirs inside (-_N/2, _N/2), where equal BivarPolys are equal
    forms."""
    terms = {}
    for (e, b), v in form.terms.items():
        k = round(e / _N)
        assert abs(e - k * _N) < _N // 16, f"s-offset of s^{e} too close to _N/2"
        terms[(k, e - k * _N, b)] = v
    return terms


@lru_cache(maxsize=None)
def forms():
    """The forms of r0, alpha, beta, H, eta_1, eta_2 and r1, the last three
    from the factors that ``FORMS`` keeps, each checked by ``u_split``."""
    r0, alpha, beta, H = (FORMS[k] for k in ("r0", "alpha", "beta", "H"))
    (a1, b1), (a2, b2) = FORMS["eta1"], FORMS["eta2"]
    t_aa, t_ab, t_bb = FORMS["r1"]
    out = dict(r0=r0, alpha=alpha, beta=beta, H=H,
               eta1=a1 * alpha + b1 * beta, eta2=a2 * alpha + b2 * beta,
               r1=-(alpha * alpha * t_aa) + alpha * beta * t_ab + beta * beta * t_bb)
    for form in out.values():
        u_split(form)
    return out


@pytest.mark.parametrize("n", range(-3, MAX_N + 1))
def test_builders_are_the_forms_at_n(n):
    """Each builder is its form at U = s^n, also where the monomials of a
    form coincide (n <= 0); r0 refuses n < 1."""
    builders = dict(r0=r0_polynomial, alpha=alpha_polynomial, beta=beta_polynomial,
                    H=h_polynomial, eta1=eta1_polynomial, eta2=eta2_polynomial,
                    r1=r1_polynomial)
    for name, form in forms().items():
        if n >= 1 or name != "r0":
            assert builders[name](n) == _at(form, n), name


def packed(groups):
    """The form of {(U-degree, m-degree): {s-degree: coefficient}}."""
    return BivarPoly({(k * _N + a, b): v
                      for (k, b), row in groups.items() for a, v in row.items()})


def test_r1_is_q_times_r0_for_every_n():
    """r1 m^4 = Q r0 in Z[s^+-1, U, m^+-1]: r1 = 0 mod r0 at every n."""
    Q = packed(oracles.R1_COFACTOR)
    assert len(u_split(Q)) == 50
    assert Q * forms()["r0"] == forms()["r1"].shift(m_exp=4)


def test_zeta1_vanishes_for_every_n():
    f = forms()
    zeta1, _ = zetas(f["H"], f["eta1"], f["eta2"], f["alpha"], f["beta"], mono(2 * _N))
    assert zeta1 == BivarPoly()


def test_r0_divides_zeta2_for_every_n():
    """zeta_2 m^4 = C r0 in Z[s^+-1, U, m^+-1]."""
    f = forms()
    _, zeta2 = zetas(f["H"], f["eta1"], f["eta2"], f["alpha"], f["beta"], mono(2 * _N))
    C = packed(oracles.ZETA2_COFACTOR)
    assert len(u_split(C)) == 8
    assert C * f["r0"] == zeta2.shift(m_exp=4)


def test_r0_m_palindromic_for_every_n():
    """r0 = m^8 r0(1/m)."""
    assert m_reversed(forms()["r0"], 8) == forms()["r0"]


def test_r0_s_palindromic_for_every_n():
    """r0 = s^9 U^6 r0(1/s, 1/U): at each n, r0 is palindromic in s of
    degree 6n + 9, and so is its cofactor, as (s - 1)^2 (s + 1)^3 is."""
    r0 = forms()["r0"]
    assert BivarPoly({(9 + 6 * _N - e, b): v for (e, b), v in r0.terms.items()}) == r0


def test_r0_rejects_bad_n():
    for n in (0, MAX_N + 1):
        with pytest.raises(ValueError):
            r0_polynomial(n)
    for n in (0, -2, MAX_N + 1):
        with pytest.raises(ValueError):
            build_context(n, mpc(1.2, 0.4), mpc(0.3, 0.8))


def test_r0_double_transcription():
    rng = random.Random(42)
    for n in range(1, 6):
        r0 = r0_polynomial(n)
        for _ in range(20):
            m, s = rand_ms(rng)
            with mp.workprec(256):
                got, scale = r0.eval(m, s)
            with mp.workprec(320):
                ref = oracles.r0_value(n, m, s)
                assert abs(got - ref) < eps(200) * (1 + scale)


def test_alpha_beta_double_transcription():
    rng = random.Random(43)
    for n in range(1, MAX_N + 1):
        for _ in range(3):
            m, s = rand_ms(rng)
            for poly, oracle in ((alpha_polynomial(n), oracles.alpha_value),
                                 (beta_polynomial(n), oracles.beta_value)):
                with mp.workprec(256):
                    got, scale = poly.eval(m, s)
                with mp.workprec(320):
                    d = abs(got - oracle(n, m, s))
                    assert d < eps(200) * (1 + scale)


def test_derived_constants_double_transcription():
    rng = random.Random(44)
    for n in range(1, MAX_N + 1):
        for _ in range(2):
            m, s = rand_ms(rng)
            pairs = (
                (h_polynomial(n), oracles.h_value),
                (eta1_polynomial(n), oracles.eta1_value),
                (eta2_polynomial(n), oracles.eta2_value),
                (r1_polynomial(n), oracles.r1_value),
            )
            for poly, oracle in pairs:
                with mp.workprec(256):
                    got, scale = poly.eval(m, s)
                with mp.workprec(320):
                    d = abs(got - oracle(n, m, s))
                    assert d < eps(200) * (1 + scale), (n, oracle.__name__)


def test_builders_add_coinciding_monomials():
    """At n <= 0 some n-dependent exponents meet fixed ones (H's s^(2n+2)
    meets its constant 1 at n = -1, its m^2 s^(2n+1) meets m^2 s at n = 0):
    each builder must add such monomials, not keep one of them, so it still
    matches its oracle there.  r0 refuses n < 1 and is not built."""
    rng = random.Random(45)
    for n in (-3, -2, -1, 0):
        for _ in range(3):
            m, s = rand_ms(rng)
            for poly, oracle in ((alpha_polynomial(n), oracles.alpha_value),
                                 (beta_polynomial(n), oracles.beta_value),
                                 (h_polynomial(n), oracles.h_value),
                                 (eta1_polynomial(n), oracles.eta1_value),
                                 (eta2_polynomial(n), oracles.eta2_value),
                                 (r1_polynomial(n), oracles.r1_value)):
                with mp.workprec(256):
                    got, scale = poly.eval(m, s)
                with mp.workprec(320):
                    d = abs(got - oracle(n, m, s))
                    assert d < eps(200) * (1 + scale), (n, oracle.__name__)


def test_alpha_vanishes_at_s_one():
    for n in (1, 2, 4):
        for m_pair in STD_M:
            m = m_at(*m_pair)
            with mp.workprec(256):
                v, scale = alpha_polynomial(n).eval(m, mpc(1))
                assert abs(v) < eps(200) * scale


def test_beta_odd_in_m():
    for n in (1, 2, 5):
        assert all(b % 2 == 1 for (_, b) in beta_polynomial(n).terms)


def test_h_vanishes_at_s_one():
    m = m_at("1.2", "0.4")
    with mp.workprec(256):
        assert abs(h_polynomial(3).eval(m, mpc(1))[0]) < eps(200) * 10


# -- roots ------------------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3))
def test_solve_roots_residuals_and_flags(n):
    m, roots = cached_roots(n, STD_M[0])
    r0 = r0_polynomial(n)
    deg = r0.s_degree()
    val = r0.s_valuation()
    assert len(roots) == deg
    assert sum(1 for r in roots if "s_zero" in r.flags) == val
    assert any("s_one" in r.flags for r in roots)
    assert any("s_minus_one" in r.flags for r in roots)
    bound = mpf(2) ** -128
    for rec in roots:
        if "s_zero" in rec.flags:
            continue
        with mp.workprec(256):
            value, scale = r0.eval(m, rec.s)
            res = abs(value) / scale
        assert res < bound


@pytest.mark.parametrize("n", (1, 2, 3))
def test_solve_roots_exact_roots_and_certificates(n):
    """0, 1 and -1 come out exactly, with their multiplicities and residual
    0; every other root sits in a disc disjoint from all other discs and
    not containing the exact roots."""
    _, roots = cached_roots(n, STD_M[0])
    val, _ = r0_cofactor(n)
    exact = [r for r in roots if r.s in (0, 1, -1)]
    assert sorted(int(r.s.real) for r in exact) == [-1] * 3 + [0] * val + [1] * 2
    assert all(r.residual == 0 and r.radius == 0 and r.flags for r in exact)
    rest = [r for r in roots if r.s not in (0, 1, -1)]
    assert all(0 < r.radius < mpf("1e-60") for r in rest)
    for i, a in enumerate(rest):
        assert all(abs(a.s - e) > a.radius for e in (0, 1, -1))
        for b in rest[i + 1:]:
            assert abs(a.s - b.s) > a.radius + b.radius


@pytest.mark.parametrize("m_pair", STD_M + (("0.6872", "-1.0699"),))
def test_certificate_discs_enclose_the_1024_bit_roots(m_pair):
    """The certificate is an enclosure of the cofactor's roots at m itself:
    with m read at 128 bits, so that every precision solves for the same m,
    each disc of ``certified_roots`` at 128, 256 and 512 bits holds exactly
    one of the roots solved at 1024 bits, for n = 1, 2, 3, 5 and 8, and the
    discs are pairwise disjoint (both compared at 1100 bits).  Each part of
    each polished root lies within half a unit in its last place at
    ``prec`` of that 1024-bit root: it is the root correctly rounded, up to
    the reference's own error."""
    m = m_at(*m_pair, prec=128)
    for n in (1, 2, 3, 5, 8):
        q = r0_cofactor(n)[1]
        ref = certified_roots(q, m, 1024)[0]
        for prec in (128, 256, 512):
            roots, radii = certified_roots(q, m, prec)
            with mp.workprec(1100):
                for z, r in zip(roots, radii):
                    assert sum(abs(w - z) <= r for w in ref) == 1, (n, prec, z)
                    w = next(w for w in ref if abs(w - z) <= r)
                    for got, want in ((z.real, w.real), (z.imag, w.imag)):
                        _, man, exp, bc = got._mpf_
                        assert man and abs(got - want) <= mpf(2) ** (exp + bc - prec - 1), \
                            (n, prec, z)
                for i in range(len(roots)):
                    for j in range(i):
                        assert abs(roots[i] - roots[j]) > radii[i] + radii[j], (n, prec)


def test_seed_step_budget_follows_the_degree(monkeypatch):
    """The seed gets max(50, 2d) steps of ``mp.polyroots``: at n = 15, m =
    0.6872-1.0699i, its default 50 did not converge, at 64 bits nor at
    ``prec``, and the point refused; with 168 steps its 84 roots certify at
    128 bits, on the first seed."""
    budgets = []
    polyroots = mp.polyroots

    def counted(coeffs, **kwargs):
        budgets.append(kwargs["maxsteps"])
        return polyroots(coeffs, **kwargs)

    monkeypatch.setattr(mp, "polyroots", counted)
    q = r0_cofactor(15)[1]
    roots, _ = certified_roots(q, m_at("0.6872", "-1.0699", prec=128), 128)
    assert len(roots) == q.s_degree() == 84
    assert budgets == [168]


@pytest.mark.parametrize("prec", (256, 512))
def test_certifier_reseeds_at_working_precision(monkeypatch, prec):
    """At n = 5, m = 0.0099+0.0015i, the 64-bit seed does not converge and
    the seed at ``prec`` certifies all 24 roots: real traffic through the
    working-precision stage, with no forced failure."""
    seeds = []
    polyroots = mp.polyroots

    def counted(coeffs, **kwargs):
        try:
            found = polyroots(coeffs, **kwargs)
        except mp.NoConvergence:
            seeds.append((mp.prec, False))
            raise
        seeds.append((mp.prec, True))
        return found

    monkeypatch.setattr(mp, "polyroots", counted)
    q = r0_cofactor(5)[1]
    roots, _ = certified_roots(q, m_at("0.0099", "0.0015", prec=prec), prec)
    assert len(roots) == q.s_degree() == 24
    assert seeds == [(64, False), (prec, True)]


def test_certifier_refuses_a_double_root():
    """The seeds converge, so the refusal names the overlapping discs."""
    poly = BivarPoly({(3, 0): 1, (1, 0): -3, (0, 0): 2})  # (s - 1)^2 (s + 2)
    with pytest.raises(NonConvergence,
                       match="could not isolate the 3 roots in disjoint discs"):
        certified_roots(poly, mpc(1), 256)


@pytest.mark.parametrize("prec, seeded_at", ((64, [64]), (256, [64, 256])),
                         ids=("64bit", "256bit"))
def test_certifier_seeds_once_per_precision(monkeypatch, prec, seeded_at):
    """When seeding fails, each distinct precision of 64 bits and ``prec``
    is tried once before ``NonConvergence``, which names the seeds."""
    seen = []

    def failing_polyroots(coeffs, **kwargs):
        seen.append(mp.prec)
        raise mp.NoConvergence

    monkeypatch.setattr(mp, "polyroots", failing_polyroots)
    with pytest.raises(NonConvergence,
                       match=f"the seeds of the 2 roots did not converge at {prec} bits"):
        certified_roots(BivarPoly({(2, 0): 1, (0, 0): -2}), mpc(1), prec)
    assert seen == seeded_at


def test_solve_roots_match_undeflated_polyroots():
    """Oracle: mpmath's polyroots on the whole of r0, as the solver did
    before the exact deflation, on its coefficient row summed in ``mpc``
    (``_mpc_row``), at n = 2 and 256 bits."""
    n, prec = 2, 256
    m, roots = cached_roots(n, STD_M[0])
    r0 = r0_polynomial(n)
    with mp.workprec(prec):
        coeffs, val = _mpc_row(r0, m)
        full = mp.polyroots(coeffs, maxsteps=500, extraprec=prec)
        ref = sorted([mpc(0)] * val + full, key=lambda s: (s.real, s.imag))
        assert ([build_context(n, m, s, prec).flags for s in ref]
                == [rec.flags for rec in roots])
    for s, rec in zip(ref, roots):
        if not rec.flags:
            assert abs(s - rec.s) < mpf("1e-70")


@pytest.mark.parametrize("n", (1, 2, 3))
def test_root_sets_invariant_under_m_symmetries(n):
    """r0 is even and palindromic in m, so m, -m and 1/m share one root
    set."""
    for m_pair in STD_M:
        m, roots = cached_roots(n, m_pair)
        with mp.workprec(256):
            others = (-m, 1 / m)
        for other in others:
            twin = solve_s_roots(n, other, 256)
            assert [r.flags for r in twin] == [r.flags for r in roots]
            for a, b in zip(twin, roots):
                assert abs(a.s - b.s) < mpf("1e-70")


def test_solve_roots_rejects_zero_m():
    with pytest.raises(ValueError):
        solve_s_roots(2, 0)


def test_select_root_policy():
    _, roots = cached_roots(2, STD_M[0])
    idx = select_root(roots)
    assert not roots[idx].flags
    best = max((abs(r.s.imag) for r in roots if not r.flags))
    assert abs(abs(roots[idx].s.imag) - best) < mpf("1e-50")
    flagged = next(i for i, r in enumerate(roots) if r.flags)
    with pytest.raises(DegenerateContext):
        select_root(roots, flagged)
    with pytest.raises(IndexError):
        select_root(roots, len(roots))


def _mpc_flags(n, m, s, values):
    """The degeneracy flags by comparisons of ``mpc`` and ``mpf`` values at
    the ambient precision, as ``build_context`` once took them."""
    flags = set()
    am, as_ = abs(m), abs(s)
    tol = pretzel.DEGENERACY_TOL
    if am < tol:
        flags.add("m_zero")
    if as_ < tol:
        flags.add("s_zero")
    if abs(s - 1) < tol * max(mpf(1), as_):
        flags.add("s_one")
    if abs(s + 1) < tol * max(mpf(1), as_):
        flags.add("s_minus_one")
    if abs(s ** (2 * n + 1) + 1) < tol * (1 + as_ ** (2 * n + 1)):
        flags.add("s_power_minus_one")
    for name, (value, scale) in zip(("alpha_zero", "beta_zero", "H_zero"), values):
        if scale == 0 or abs(value) < tol * scale:
            flags.add(name)
    return frozenset(flags)


@pytest.mark.parametrize("n", (1, 2, 5))
def test_flags_on_both_sides_of_the_tolerance(n):
    """At 0.95 and 1.05 times its threshold distance from s = 1, from s = -1
    and from the root e^(i pi/(2n+1)) of s^(2n+1) = -1, in four directions,
    a point is flagged s_one, s_minus_one or s_power_minus_one, and then
    not; every point's flags are those of the ``mpc`` comparisons
    (``_mpc_flags``)."""
    prec, tol = 256, pretzel.DEGENERACY_TOL
    m = m_at("1.2", "0.4")
    polys = alpha_polynomial(n), beta_polynomial(n), h_polynomial(n)
    with mp.workprec(prec):
        root = mp.expjpi(mpf(1) / (2 * n + 1))
        centres = (("s_one", mpc(1), tol), ("s_minus_one", mpc(-1), tol),
                   ("s_power_minus_one", root, 2 * tol / (2 * n + 1)))
    for name, centre, distance in centres:
        for k in range(4):
            for factor, flagged in (("0.95", True), ("1.05", False)):
                with mp.workprec(prec):
                    step = distance * mpf(factor) * mp.expjpi(mpf(k) / 2 + mpf(1) / 8)
                    s = centre + step if name != "s_power_minus_one" else centre * (1 + step)
                ctx = build_context(n, m, s, prec)
                with mp.workprec(prec):
                    assert ctx.flags == _mpc_flags(n, m, s, [p.eval(m, s) for p in polys])
                assert (name in ctx.flags) == flagged, (name, k, factor)


def test_degeneracy_flags():
    m = m_at("1.2", "0.4")
    assert "s_one" in build_context(2, m, 1).flags
    assert "s_minus_one" in build_context(2, m, -1).flags
    assert "s_zero" in build_context(2, m, 0).flags
    assert "m_zero" in build_context(2, mpc(mpf("1e-15")), 2).flags


@pytest.mark.parametrize("prec", (128, 256))
def test_context_values_and_flags_match_their_single_evaluations(prec):
    """build_context evaluates alpha, beta and H through each polynomial's
    ``eval`` and flags the point from those same values, and eta_1 and
    eta_2 on first use: each value is bit for bit the polynomial's own
    ``eval``, and the flags are the solver's, at every root.  eta_1 and
    eta_2 are compared at the nondegenerate roots: at the exact roots s =
    +-1 they are 0, and both readings are rounding noise."""
    n = 3
    m, roots = cached_roots(n, ("0.9", "-0.2"), prec)
    polys = (alpha_polynomial(n), beta_polynomial(n), h_polynomial(n),
             eta1_polynomial(n), eta2_polynomial(n))
    for rec in roots:
        ctx = build_context(n, m, rec.s, prec=prec, strict=False)
        with mp.workprec(prec):
            singles = [poly.eval(m, rec.s)[0] for poly in polys]
        values = [ctx.alpha, ctx.beta, ctx.H, ctx.eta1, ctx.eta2]
        kept = 3 if rec.flags else 5
        assert values[:kept] == singles[:kept]
        assert ctx.flags == rec.flags


@pytest.mark.parametrize("prec", (128, 256, 512))
@pytest.mark.parametrize("n", (1, 2, 5, 8))
def test_solver_contexts_are_the_built_contexts(n, prec):
    """Every context the solver returns is, bit for bit, the one
    build_context makes at its root, eta_1 and eta_2 are their polynomials'
    ``eval`` at ``ctx.prec`` at every nondegenerate root (at the exact roots
    s = +-1 both readings of their 0 are rounding noise), and the exact
    roots carry residual and radius 0."""
    polys = eta1_polynomial(n), eta2_polynomial(n)
    fields = ("m", "s", "alpha", "beta", "H", "eta1", "eta2", "S", "flags")
    for m_pair in STD_M:
        m, roots = cached_roots(n, m_pair, prec)
        for ctx in roots:
            assert isinstance(ctx, PretzelContext) and ctx.prec == prec
            built = build_context(n, m, ctx.s, prec)
            for name in fields:
                assert getattr(ctx, name) == getattr(built, name), name
            if not ctx.flags:
                with mp.workprec(prec):
                    etas = [poly.eval(ctx.m, ctx.s)[0] for poly in polys]
                assert [ctx.eta1, ctx.eta2] == etas
            if ctx.s in (0, 1, -1):
                assert ctx.residual == ctx.radius == 0
            else:
                assert 0 < ctx.radius and 0 <= ctx.residual


@pytest.mark.parametrize("prec", (128, 256, 512))
@pytest.mark.parametrize("n", range(1, 6))
def test_context_forms_are_the_expanded_polynomials(n, prec):
    """A context's eta_1, eta_2 and eta_1 + eta_2 are the paper's linear
    forms in its exact alpha and beta: at every nondegenerate root they are
    bit for bit the expanded polynomials' ``eval``.  r1, the quadratic
    form, lies within 2^(4-prec) of its polynomial's ``eval``, relative to
    the scale ``eval`` returns (measured 4.2 2^-prec at most).  At m =
    1.2+0.4i, 0.9-0.2i and 0.0099+0.0015i, wherever the solver certifies."""
    polys = (eta1_polynomial(n), eta2_polynomial(n), eta1_polynomial(n) + eta2_polynomial(n))
    checked = 0
    for m_pair in STD_M + (("0.0099", "0.0015"),):
        try:
            m, roots = cached_roots(n, m_pair, prec)
        except NonConvergence:   # some tiny-|m| cases are refused
            continue
        for ctx in roots:
            if ctx.flags:
                continue
            checked += 1
            with mp.workprec(prec):
                assert [ctx.eta1, ctx.eta2, ctx.eta_sum] == [
                    poly.eval(m, ctx.s)[0] for poly in polys], (m_pair, ctx.s)
                value, scale = r1_polynomial(n).eval(m, ctx.s)
                assert abs(ctx.r1 - value) <= mpf(2) ** (4 - prec) * scale, (m_pair, ctx.s)
    assert checked


def _fraction(x):
    """An ``mpf`` as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def test_disc_disjointness_is_exact():
    """``_disjoint`` decides |z_i - z_j| > r_i + r_j exactly, as Fractions
    do, where the radii put the discs within a few units of 2^-prec of
    touching: there the comparison of the rounded |z_i - z_j| and r_i + r_j
    goes wrong both ways.  Discs that touch exactly (|z_i - z_j| = r_i +
    r_j) are refused, and so is an infinite radius."""
    rng = random.Random(29)
    prec = 128
    verdicts, rounded_wrong = set(), 0
    with mp.workprec(prec):
        for _ in range(400):
            zs = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            r0 = abs(zs[1] - zs[0]) * mpf(rng.uniform(0.1, 0.9))
            ulp = mpf(2) ** (rng.randint(-3, 1) - prec)
            radii = [r0, abs(zs[1] - zs[0]) - r0 + rng.randint(-4, 4) * ulp, mpf("1e-3")]
            exact = all(
                (_fraction(a.real) - _fraction(b.real)) ** 2
                + (_fraction(a.imag) - _fraction(b.imag)) ** 2
                > (_fraction(ra) + _fraction(rb)) ** 2
                for (a, ra), (b, rb) in itertools.combinations(zip(zs, radii), 2))
            assert pretzel._disjoint(zs, radii) == exact
            verdicts.add(exact)
            rounded_wrong += (abs(zs[1] - zs[0]) > radii[0] + radii[1]) != exact
        assert verdicts == {True, False} and rounded_wrong
        for k in (-40, 0, 30):
            z, step = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)), mpf(2) ** k
            touching = [z, z + mpc(3, 4) * step]
            assert not pretzel._disjoint(touching, [2 * step, 3 * step])
            assert pretzel._disjoint(touching, [2 * step, 3 * step - step / 2 ** 100])
        assert not pretzel._disjoint([mpc(0), mpc(10)], [mpf(1), mpf("inf")])


def test_build_context_strict():
    m = m_at("1.2", "0.4")
    with pytest.raises(DegenerateContext):
        build_context(2, m, 1, strict=True)
    ctx = build_context(2, m, 1, strict=False)
    assert not ctx.nondegenerate


# -- certification identities at roots --------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_r1_vanishes_at_roots(n):
    for m_pair in STD_M:
        for ctx in cached_contexts(n, m_pair):
            with mp.workprec(ctx.prec):
                value, scale = r1_polynomial(ctx.n).eval(ctx.m, ctx.s)
            assert abs(value) < mpf("1e-40") * scale


def test_r1_generically_nonzero_off_roots():
    rng = random.Random(77)
    n = 2
    for _ in range(5):
        m, s = rand_ms(rng)
        ctx = build_context(n, m, s, strict=False)
        with mp.workprec(ctx.prec):
            value, scale = r1_polynomial(ctx.n).eval(ctx.m, ctx.s)
        assert abs(value) > mpf("1e-12") * scale


@pytest.mark.parametrize("m_pair", STD_M, ids=("m0", "m1"))
def test_reciprocal_roots_carry_one_representation(m_pair):
    """The cofactor is palindromic in s, so at n = 3 the 12 nondegenerate
    roots pair up as s, 1/s; both roots of a pair give the same
    representation up to conjugacy (equal traces of A, B, X and their
    products) and the same twisted Alexander polynomial."""
    n = 3
    ctxs = cached_contexts(n, m_pair)
    assert len(ctxs) == 12
    pairs = set()
    for i, ctx in enumerate(ctxs):
        with mp.workprec(ctx.prec):
            near = [j for j, c in enumerate(ctxs)
                    if abs(c.s - 1 / ctx.s) < mpf(2) ** -100]
        assert len(near) == 1
        pairs.add(frozenset((i, near[0])))
    assert len(pairs) == 6 and all(len(p) == 2 for p in pairs)
    for i, j in pairs:
        words = []
        for ctx in (ctxs[i], ctxs[j]):
            A, B, X = (mpc_matrix(M) for M in ctx.holonomy_matrices[:3])
            with mp.workprec(ctx.prec):
                words.append([M.a11 + M.a22 for M in (
                    A, B, X, A * B, A * X, B * X, A * B * X)])
        assert max(abs(a - b) for a, b in zip(*words)) < mpf("1e-60")
        p, q = (delta_theorem(ctxs[k]).poly for k in (i, j))
        assert max(abs(p.coeff(e) - q.coeff(e))
                   for e in range(4 * n + 7)) < mpf("1e-60")


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_relation_residuals_both_presentations(n):
    """Each relator holds under both representations, and the residuals the
    walk keeps equal, bit for bit, those of the walk's definition carried
    out letter by letter in exact Fractions (``walked_residual``): each
    prefix product exact, then rounded to prec + 64 bits, the largest entry
    of the difference correctly rounded at prec."""
    for m_pair in STD_M:
        for ctx in cached_contexts(n, m_pair):
            for name in ("two", "three"):
                rep = build_holonomy_rep(ctx, name)
                want = tuple(walked_residual(rep, rel)
                             for rel in rep.pres.relators)
                assert rep.residuals == want
                assert max(rep.residuals) < mpf("1e-60")


def test_holonomy_matrix_structure():
    ctx = cached_contexts(3, STD_M[1])[0]
    A, B, X = (mpc_matrix(M) for M in ctx.holonomy_matrices[:3])
    m, S = ctx.m, ctx.S
    assert abs(A.a11 - m) == 0 and abs(A.a21) == 0
    assert abs(X.a11 - S) == 0 and abs(X.a12) == 0
    with mp.workprec(ctx.prec):
        assert abs(A.a22 - 1 / m) < eps(200)
        for M in (A, B, X):
            assert abs(M.det() - 1) < mpf("1e-60")
        tr = A.a11 + A.a22
        assert abs(tr - (m + 1 / m)) < eps(200)


@pytest.mark.parametrize("prec", (128, 256, 512))
@pytest.mark.parametrize("n", (1, 2, 5))
def test_two_generator_image_is_the_full_mpc_product(n, prec):
    """The image of c, rho(x) rho(b), written out without the terms of x12
    = 0, is value for value the full 2x2 product X B of the images, every
    one of its eight products and four sums rounded as ``Gauss`` rounds
    (exact, then to nearest on one power of two for prec + 64 bits,
    ``round_to_bits``), at every nondegenerate root of both standard m.
    Once an ``mpc`` product, it is now taken on ``Gauss``;
    ``oracles.holonomy_images`` keeps the ``mpc`` formula, which
    ``test_holonomy_images_are_the_printed_formulas`` compares with."""
    def rounded(z):
        return round_to_bits(list(z), prec + 64)

    def product(P, i, Q, j):
        return rounded((P[i] * Q[j] - P[i + 1] * Q[j + 1], P[i] * Q[j + 1] + P[i + 1] * Q[j]))

    for m_pair in STD_M:
        for ctx in cached_contexts(n, m_pair, prec):
            _, B, X, XB = (exact_matrix(M) for M in ctx.holonomy_matrices)
            assert X[2:4] == [0, 0]
            want = []
            for row, col in ((0, 0), (0, 2), (4, 0), (4, 2)):
                p, q = product(X, row, B, col), product(X, row + 2, B, col + 4)
                want += rounded((p[0] + q[0], p[1] + q[1]))
            assert XB == want


TINY_M = ("0.0099", "0.0015")


@pytest.mark.parametrize("prec", (256, 512))
@pytest.mark.parametrize("n, m_pair", [(2, STD_M[0]), (3, STD_M[0]), (3, TINY_M)],
                         ids=("n2-m0", "n3-m0", "n3-tiny"))
def test_holonomy_images_are_the_printed_formulas(n, m_pair, prec):
    """rho(a), rho(b), rho(x) and rho(x) rho(b), taken on ``Gauss``, are
    within 2^(4-prec) of the printed formulas in ``mpc`` at twice the
    precision (``oracles.holonomy_images``, on the same m, s, alpha, beta
    and S), relative to each matrix's largest entry, and zero where they
    are, at every nondegenerate root (solved at 256 bits, its context
    built at ``prec``).  Measured at most 5.3 * 2^-prec, at the root |s| =
    1e-4 of m = 0.0099+0.0015i, n = 3, where the lower row of rho(x)
    rho(b) cancels some 40 bits; at m = 1.2+0.4i under 2^-(prec+50).  The
    same formulas in ``mpc`` at ``prec`` miss by up to 2^(67-prec) at the
    tiny m and 2^(9-prec) at m = 1.2+0.4i."""
    for root in cached_contexts(n, m_pair):
        ctx = build_context(n, m_at(*m_pair, prec=prec), root.s, prec)
        assert ctx.nondegenerate
        got = [mpc_matrix(P) for P in ctx.holonomy_matrices]
        with mp.workprec(2 * prec):
            want = oracles.holonomy_images(n, ctx.m, ctx.s, ctx.alpha, ctx.beta, ctx.S)
            for G, W in zip(got, want):
                top = max(abs(w) for w in W.entries())
                for g, w in zip(G.entries(), W.entries()):
                    assert (g == 0) == (w == 0)
                    assert abs(g - w) <= mpf(2) ** (4 - prec) * top


def test_root_fingerprints_match_the_sweep_fixture():
    """The exact-bit fingerprints of ``root_sweep`` for n = 1..8 at its three
    m and 256 bits equal its stored output (``python tests/root_sweep.py
    --n 1..8 --prec 256``): every root, radius, flag and their order."""
    want = (Path(__file__).parent / "golden" / "root_sweep_256.txt").read_text()
    got = [root_sweep.case_line(n, m_pair, 256)
           for n in range(1, 9) for m_pair in root_sweep.M_VALUES]
    assert got == want.splitlines()


def test_holonomy_rejects_degenerate():
    m = m_at("1.2", "0.4")
    ctx = build_context(2, m, 1, strict=False)
    with pytest.raises(DegenerateContext):
        build_holonomy_rep(ctx, "two")


def test_presentations_shapes():
    p2 = presentation_two_gen(3)
    assert len(p2.generators) == 2
    assert p2.abelian_exponents == (1, 7)
    p3 = presentation_three_gen(3)
    assert len(p3.generators) == 3
    assert p3.abelian_exponents == (1, 1, 6)
    # n=1 collapses the power side of the 2-generator relator to the
    # empty word
    assert presentation_two_gen(1).relators[0].lhs == ()
    with pytest.raises(ValueError):
        presentation_two_gen(0)


def test_smallest_member_degenerate_group_still_works():
    """Regression guard for n = 1, where several printed exponents collide:
    the (s^(2n) - s^2) factor is identically zero, so the m^8/m^0 groups of
    the defining polynomial drop out entirely, and exponent pairs like
    s^(2n) vs s^2 land on the same monomial.  Building those sums as dict
    literals once silently kept only one of the colliding coefficients,
    which destroyed every identity at n = 1 while leaving n >= 2 intact.
    The roots of the correctly collapsed polynomial do carry
    representations, like every other member of the family."""
    r0 = r0_polynomial(1)
    assert m_degree(r0) == 6  # the m^8 group is identically zero here
    assert r0.s_degree() == 13
    for m_pair in STD_M:
        ctxs = cached_contexts(1, m_pair)
        assert ctxs
        two, three = (build_holonomy_rep(ctxs[0], name).residuals
                      for name in ("two", "three"))
        assert max(two + three) < mpf("1e-60")
