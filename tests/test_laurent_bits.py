"""``LaurentPoly`` on Gaussian integers against the ``mpc``-backed
polynomial it replaced, bit for bit.

``MpcPoly`` below is that former polynomial: a dict {e: mpc} swept by the
one rule, sums and negation in ``mpc`` arithmetic, products, determinants
and the long division read exactly with ``gaussian`` and rounded back to
``mpc`` with ``from_man_exp``.  Rounding each exact part once to nearest,
ties to even, is what ``mpc`` arithmetic does, so every operation must give
the same bits, exact rounding ties included.
"""

import random
from itertools import combinations

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

from talex import LaurentPoly, build_holonomy_rep, fox
from talex.laurent import (SWEEP_GUARD_BITS, convolve_into,
                           divide_with_remainder, gaussian, poly_mat_det,
                           sqrt_ratio, swept_gaussian)
from conftest import STD_M, cached_contexts, coeffs

PRECS = (64, 100, 192, 256, 512)


class MpcPoly:
    """The former ``LaurentPoly``: ``mpc`` coefficients kept as given (any
    other number converted at ``prec``), swept on their exact values."""

    def __init__(self, terms, prec):
        with mp.workprec(prec):
            terms = {e: c if isinstance(c, mpc) else mpc(c)
                     for e, c in terms.items()}
        kept = swept_gaussian(_read(terms)[0], prec)
        self.terms, self.prec = {e: terms[e] for e in kept}, prec

    def __add__(self, other):
        prec = max(self.prec, other.prec)
        out = dict(self.terms)
        with mp.workprec(prec):
            for e, c in other.terms.items():
                out[e] = out[e] + c if e in out else c
        return MpcPoly(out, prec)

    def __neg__(self):
        with mp.workprec(self.prec):
            return MpcPoly({e: -c for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        (a, sa), (b, sb) = _read(self.terms), _read(other.terms)
        acc = {}
        convolve_into(acc, a, b, 1)
        return _mpc_rounded(acc, sa + sb, max(self.prec, other.prec))


def _read(terms):
    parts, shift = gaussian(terms.values())
    return dict(zip(terms, zip(parts[0::2], parts[1::2]))), shift


def _mpc_rounded(acc, shift, prec):
    return MpcPoly({e: mp.make_mpc((from_man_exp(re, shift, prec, round_nearest),
                                    from_man_exp(im, shift, prec, round_nearest)))
                    for e, (re, im) in acc.items()}, prec)


def _mpc_divide(num, den):
    """The former ``divide_with_remainder`` on ``MpcPoly`` operands."""
    prec = max(num.prec, den.prec)
    (a, sa), (d, sd) = _read(num.terms), _read(den.terms)
    dmax, qmin = max(d), min(a) - min(d)
    dr, di = d[dmax]
    dlead2 = dr * dr + di * di
    tail = [(e, r, i, r + i) for e, (r, i) in d.items() if e != dmax]
    norm2 = max(re * re + im * im for re, im in a.values())
    g = 2 * prec + 24 + max(0, (dlead2.bit_length() - norm2.bit_length()) // 2 + 1)
    rem = {e: (re << g, im << g) for e, (re, im) in a.items()}
    norm2 <<= 2 * g
    cut2 = norm2 >> 2 * (prec - SWEEP_GUARD_BITS)
    quot = {}
    while rem:
        e = max(rem)
        k = e - dmax
        if k < qmin:
            break
        rr, ri = rem.pop(e)
        qr = (2 * (rr * dr + ri * di) + dlead2) // (2 * dlead2)
        qi = (2 * (ri * dr - rr * di) + dlead2) // (2 * dlead2)
        quot[k] = (qr, qi)
        for de, tr, ti, ts in tail:
            p, q = qr * tr, qi * ti
            wr, wi = rem.get(k + de, (0, 0))
            wr, wi = wr - p + q, wi - (qr + qi) * ts + p + q
            if wr * wr + wi * wi > cut2:
                rem[k + de] = (wr, wi)
            else:
                rem.pop(k + de, None)
    rem2 = max((re * re + im * im for re, im in rem.values()), default=0)
    return (_mpc_rounded(quot, sa - g - sd, prec),
            sqrt_ratio(rem2, norm2, 0, prec))


def _mpc_det(rows, shift, prec):
    """The former ``poly_mat_det``: the same exact expansion, rounded to
    ``mpc``."""
    n = len(rows)
    minors = {(j,): rows[-1][j] for j in range(n)}
    for i in range(n - 2, -1, -1):
        wider = {}
        for cols in combinations(range(n), n - i):
            total = {}
            for pos, j in enumerate(cols):
                convolve_into(total, rows[i][j],
                               minors[cols[:pos] + cols[pos + 1:]],
                               -1 if pos % 2 else 1)
            wider[cols] = total
        minors = wider
    return _mpc_rounded(minors[tuple(range(n))], n * shift, prec)


def _bits(p):
    """The coefficient bits of a LaurentPoly or an MpcPoly."""
    values = coeffs(p) if isinstance(p, LaurentPoly) else p.terms
    return p.prec, {e: c._mpc_ for e, c in values.items()}


def _dyadic(man, exp):
    """man * 2^exp as an mpf, unrounded."""
    return mp.make_mpf(from_man_exp(man, exp))


def _mpc(re, im):
    """The mpc with these parts, unrounded."""
    return mp.make_mpc((re._mpf_, im._mpf_))


def _part(rng, prec, exp):
    """A random part with a prec-bit mantissa whose top bit is set."""
    man = (1 << (prec - 1)) | rng.getrandbits(prec - 1)
    return _dyadic(rng.choice((-1, 1)) * man, exp - prec)


def _tie_pair(rng, prec, exp):
    """Two same-signed prec-bit parts with mantissas of opposite parity at
    one exponent: their exact sum is a (prec+1)-bit odd mantissa, exactly
    halfway between two prec-bit numbers."""
    hi = 1 << (prec - 1)
    a, b = hi | rng.getrandbits(prec - 1) | 1, (hi | rng.getrandbits(prec - 1)) & ~1
    sign = rng.choice((-1, 1))
    return _dyadic(sign * a, exp - prec), _dyadic(sign * b, exp - prec)


def _pair(rng, prec):
    """Coefficient dicts p, q on t^-3..t^4: random parts over a few
    binades, half of them rounding ties of p + q, plus a coefficient of q
    near p's sweep cut and one coefficient of p missing from q."""
    p, q = {}, {}
    for e in range(-3, 5):
        parts = []
        for _ in range(2):
            x = rng.randint(-3, 3)
            if rng.random() < 0.5:
                parts.append(_tie_pair(rng, prec, x))
            else:
                parts.append((_part(rng, prec, x),
                              _part(rng, prec, x - rng.randint(0, 40))))
        (pr, qr), (pi, qi) = parts
        p[e], q[e] = _mpc(pr, pi), _mpc(qr, qi)
    q[-3] = _mpc(_part(rng, prec, 4 - prec + SWEEP_GUARD_BITS + rng.randint(0, 3)),
                 mpf(0))
    del q[4]
    return p, q


@pytest.mark.parametrize("prec", PRECS)
def test_sums_products_and_negation_are_the_mpc_bits(prec):
    """p + q, p - q, -p and p * q at prec bits, and p + q with q at a
    second precision, against the ``mpc``-backed polynomial."""
    rng = random.Random(prec)
    ties = 0
    for _ in range(25):
        p, q = _pair(rng, prec)
        other = rng.choice((prec, 64, 2 * prec))
        new_p, old_p = LaurentPoly(p, prec), MpcPoly(p, prec)
        q_given = q
        for q_prec in (prec, other):
            # at q_prec bits, as the former polynomial held only values
            # computed at its precision
            with mp.workprec(q_prec):
                q = {e: +c for e, c in q.items()}
            new_q, old_q = LaurentPoly(q, q_prec), MpcPoly(q, q_prec)
            assert _bits(new_q) == _bits(old_q)
            for op in (lambda a, b: a + b, lambda a, b: a - b,
                       lambda a, b: -a, lambda a, b: a * b, lambda a, b: b * a):
                assert _bits(op(new_p, new_q)) == _bits(op(old_p, old_q))
        for e in p.keys() & q_given.keys():
            with mp.workprec(4 * prec):
                exact = p[e] + q_given[e]
            ties += sum(x[3] == prec + 1 and x[1] & 1 for x in exact._mpc_)
    # the sums did round exact ties
    assert ties > 25


@pytest.mark.parametrize("prec", PRECS)
def test_product_ties_are_the_mpc_bits(prec):
    """(2^(prec-1) + 1) * 3 t^k is halfway between two prec-bit numbers,
    in each part and with either sign."""
    with mp.workprec(prec):
        a = mpf(2) ** (prec - 1) + 1
        p = {0: mpc(a, -a), 2: mpc(-a, 0)}
        q = {1: mpc(3, 3), 3: mpc(0, -3)}
    new = LaurentPoly(p, prec) * LaurentPoly(q, prec)
    assert _bits(new) == _bits(MpcPoly(p, prec) * MpcPoly(q, prec))
    # the t^5 coefficient, 3a i, has a (prec+1)-bit odd mantissa
    with mp.workprec(4 * prec):
        _, man, _, bc = (3 * a)._mpf_
        assert (bc, man & 1) == (prec + 1, 1) and new.coeff(5).imag != 3 * a


@pytest.mark.parametrize("prec", PRECS)
def test_division_is_the_mpc_bits(prec):
    """Quotient bits and remainder of the long division, for exact and
    inexact quotients, against the ``mpc``-backed division."""
    rng = random.Random(prec + 7)
    for _ in range(10):
        p, q = _pair(rng, prec)
        num = LaurentPoly(p, prec) * LaurentPoly(q, prec)
        if rng.random() < 0.5:
            num = num + LaurentPoly({-5: _part(rng, prec, -2)}, prec)
        den = LaurentPoly(q, prec)
        quot, rem = divide_with_remainder(num, den)
        old_quot, old_rem = _mpc_divide(MpcPoly(coeffs(num), prec),
                                        MpcPoly(q, prec))
        assert _bits(quot) == _bits(old_quot)
        assert rem == old_rem


@pytest.mark.parametrize("prec", (128, 256, 512))
def test_determinants_and_wada_quotients_are_the_mpc_bits(monkeypatch, prec):
    """``poly_mat_det`` on the Fox matrices of both presentations at n = 3,
    and the Wada division that follows, against the ``mpc`` rounding of
    the same expansion."""
    calls = []

    def spy(num, den):
        calls.append((num, den))
        return divide_with_remainder(num, den)

    det_calls = []

    def det_spy(rows, shift, det_prec):
        det_calls.append((rows, shift, det_prec))
        return poly_mat_det(rows, shift, det_prec)

    monkeypatch.setattr(fox, "divide_with_remainder", spy)
    monkeypatch.setattr(fox, "poly_mat_det", det_spy)
    for ctx in cached_contexts(3, STD_M[1], prec)[:2]:
        for kind, k in (("two", 1), ("three", 0)):
            fox.wada_polynomial(build_holonomy_rep(ctx, kind), k)
    assert len(det_calls) == len(calls) == 4
    for (rows, shift, det_prec), (num, den) in zip(det_calls, calls):
        assert _bits(num) == _bits(_mpc_det(rows, shift, det_prec))
        quot, rem = divide_with_remainder(num, den)
        old_quot, old_rem = _mpc_divide(MpcPoly(coeffs(num), prec),
                                        MpcPoly(coeffs(den), prec))
        assert (_bits(quot), rem) == (_bits(old_quot), old_rem)


@pytest.mark.parametrize("prec", (64, 256))
def test_far_below_coefficients_are_dropped_before_the_exact_read(prec):
    """A coefficient whose top bit lies more than ``prec`` bits below the
    largest is dropped before it is read exactly: the kept support is the
    one rule's, and the stored integers stay within ``prec`` bits plus the
    sweep's spread, whatever the spread of the input."""
    for spread in list(range(prec - 12, prec + 4)) + [10 ** 4, 10 ** 7]:
        with mp.workprec(prec):
            terms = {0: mpf(2) ** -spread, 1: 1,
                     2: mpc(0, 3) * mpf(2) ** -(spread // 2)}
        p = LaurentPoly(terms, prec)
        if spread <= 10 ** 4:
            assert p.support() == sorted(MpcPoly(terms, prec).terms)
        else:
            assert p.support() == [1]
        bits = max(x.bit_length() for c in p.terms.values() for x in c)
        assert bits <= prec + 8, spread
    assert LaurentPoly({0: mpf(2) ** -(prec - 9), 1: 1}, prec).support() == [0, 1]
