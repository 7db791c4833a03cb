"""Sparse Laurent polynomials, division, 2x2 matrices, normalization."""

import random
from itertools import permutations

import pytest
from mpmath import mp, mpf, mpc

from talex import InexactDivision, LaurentPoly, Mat2, laurent, laurent_divide_exact
from talex.laurent import divide_with_remainder, normalize_delta, poly_mat_det
from conftest import eps

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


def test_mul_matches_eval():
    rng = random.Random(7)
    t = mpc("0.83", "0.41")
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        lhs = (p * q).eval_at(t)
        with mp.workprec(PREC):
            rhs = p.eval_at(t) * q.eval_at(t)
        assert abs(lhs - rhs) < eps(140) * (1 + abs(rhs))


def test_ring_identities():
    rng = random.Random(11)
    p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
    t = mpc("0.5", "0.9")
    d = ((p + q) * r - (p * r + q * r)).eval_at(t)
    assert abs(d) < eps(140)


def test_division_recovers_factor():
    rng = random.Random(13)
    for _ in range(8):
        q0, d = rand_poly(rng), rand_poly(rng)
        num = q0 * d
        q, rel_rem = divide_with_remainder(num, d)
        assert rel_rem < mpf(2) ** (-150)
        diff = q - q0
        assert diff.infnorm() < eps(140) * (1 + q0.infnorm())


def test_division_detects_remainder():
    rng = random.Random(17)
    q0, d = rand_poly(rng), rand_poly(rng)
    num = q0 * d + LaurentPoly({d.min_exp - 1: 1}, PREC)
    _, rel_rem = divide_with_remainder(num, d)
    assert rel_rem > mpf("1e-10")
    with pytest.raises(InexactDivision):
        laurent_divide_exact(num, d)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divide_with_remainder(LaurentPoly({0: 1}, PREC), LaurentPoly.zero(PREC))


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
        ainv = a.inverse()
        prod = a * ainv
        assert abs(prod.a11 - 1) < eps(150)
        assert abs(prod.a12) < eps(150)
        assert abs(a.det() - 6) < eps(150)


def test_mat2_poly_det_and_cofactor():
    rng = random.Random(23)
    entries = [rand_poly(rng, 0, 3) for _ in range(4)]
    M = Mat2(*entries)
    direct = entries[0] * entries[3] - entries[1] * entries[2]
    assert (M.det() - direct).infnorm() < eps(140) * (1 + direct.infnorm())
    rows = [[entries[0], entries[1]], [entries[2], entries[3]]]
    assert (poly_mat_det(rows) - direct).infnorm() < eps(140) * (1 + direct.infnorm())


def test_poly_mat_det_3x3_multiplicative():
    # det of a block-diagonal-ish product sanity: det(I) = 1
    one, zero = LaurentPoly.one(PREC), LaurentPoly.zero(PREC)
    rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    d = poly_mat_det(rows)
    assert d.support() == [0]
    assert abs(d.coeff(0) - 1) < eps(150)


def _recursive_det(rows):
    """The plain cofactor recursion along the top row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j in range(len(rows)):
        term = rows[0][j] * _recursive_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _leibniz_det(rows):
    """Sum over permutations of sign(perm) * prod_i rows[i][perm[i]]."""
    n = len(rows)
    total = LaurentPoly.zero(PREC)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = LaurentPoly.one(PREC) * (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_poly_mat_det_4x4_shared_minors():
    rng = random.Random(29)
    rows = [[rand_poly(rng, -1, 2) for _ in range(4)] for _ in range(4)]
    d = poly_mat_det(rows)
    leibniz = _leibniz_det(rows)
    assert d.support() == leibniz.support()
    assert (d - leibniz).infnorm() < eps(140) * (1 + leibniz.infnorm())
    # every minor is the recursion's, term by term, so the bits agree too
    recursive = _recursive_det(rows)
    assert d.terms == recursive.terms


@pytest.mark.parametrize("bad", (mpf("nan"), mpf("inf"), mpc(0, "-inf")))
def test_non_finite_coefficients_refused(bad):
    with pytest.raises(ValueError):
        LaurentPoly({0: 1, 2: bad}, PREC)
    tainted = LaurentPoly({0: 1, 2: bad}, PREC, sweep=False)
    finite = LaurentPoly({0: 1, 1: 2}, PREC)
    with pytest.raises(ValueError):
        tainted * finite
    with pytest.raises(ValueError):
        divide_with_remainder(tainted, finite)
    with pytest.raises(ValueError):
        divide_with_remainder(finite * finite, tainted)


def test_exact_division_refuses_a_nan_remainder(monkeypatch):
    num = LaurentPoly({0: 1, 1: 1}, PREC)
    monkeypatch.setattr(laurent, "divide_with_remainder",
                        lambda n, d: (n, mpf("nan")))
    with pytest.raises(InexactDivision):
        laurent_divide_exact(num, num)


def test_normalize_delta_unit_bookkeeping():
    p = LaurentPoly({-3: -1, -1: 2, 4: -1}, PREC)
    res = normalize_delta(p, "test")
    assert res.poly.min_exp == 0
    assert res.sign == -1 and res.shift == 3
    # raw = sign * t^(-shift) * poly reconstructs the input
    rebuilt = (res.poly * res.sign).shifted(-res.shift)
    assert (rebuilt - p).infnorm() < eps(150)


def test_normalize_delta_never_rescales():
    p = LaurentPoly({0: mpc("2.5"), 2: 1}, PREC)
    res = normalize_delta(p, "test")
    assert abs(res.poly.coeff(0) - mpf("2.5")) < eps(150)
