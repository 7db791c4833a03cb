"""Sparse Laurent polynomials, their exact Gaussian-integer form, and 2x2
number matrices.

A ``LaurentPoly`` maps integer exponents of t to ``mpc`` coefficients and
carries its working precision ``prec``, which its one constructor requires:
there is no default precision below the entry points of ``talex.pretzel``
and ``talex.verify``.  Every operation on a polynomial computes at its
precision (the larger one for two operands).  Sums and negation run in
``mpc`` arithmetic under ``mp.workprec(prec)``.  Everything else reads the
coefficients exactly with ``gaussian``, as Gaussian integers over one power
of two (an ``mpc`` part is a mantissa times a power of two), computes in
Python integers, and rounds each coefficient of its result once, to
nearest: products, with three integer products per pair of terms;
``poly_mat_det``, whose entries arrive in that exact form from the relator
walk of ``talex.fox``; and ``divide_with_remainder``, whose quotient
coefficients are the Gaussian integers nearest R_top / d_lead, with the
dividend scaled to carry prec + 32 bits more.

Every polynomial is swept when it is built: a coefficient with magnitude at
most 2^-(prec-8) relative to the sup-norm is dropped to structural zero, so
supports stay finite, degree queries stay meaningful, and the exact
integers stay near 2*prec bits.  The one sweep rule, ``swept_gaussian``,
compares exact squared magnitudes with the squared cut; long division drops
its partial remainders by the same cut relative to the dividend.
``gaussian`` refuses a non-finite number with ``ValueError`` (it has no
mantissa, so it would read as 0), so no polynomial holds one.  Norms
(``max_abs``, the division's remainder, ``coefficient_deviation``) compare
exact squared magnitudes and take one correctly rounded square root.
``half_prec_tol(prec)`` = 2^-(prec/2) is what a ``prec``-bit result must
resolve: a division's remainder (``DeltaResult.exact``), a root's residual,
and the monicity tolerance.

``Mat2`` is a 2x2 matrix of numbers: the representation matrices.
"""

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest

SWEEP_GUARD_BITS = 8


def half_prec_tol(prec):
    """2^-(prec/2), the relative size a ``prec``-bit result counts as 0."""
    return mpf(2) ** (-(prec // 2))


def _sqrt_ratio(a, b, exp, prec):
    """sqrt(a / b) * 2^exp for integers a >= 0, b > 0, correctly rounded at
    ``prec``: r = isqrt(a 4^j / b) has prec + 2 bits or more, and an inexact
    root is rounded as 2r + 1, which lies where 2 sqrt(a 4^j / b) does,
    strictly between 2r and 2r + 2."""
    j = max(0, prec + 4 - (a.bit_length() - b.bit_length()) // 2)
    q, rest = divmod(a << 2 * j, b)
    r = isqrt(q)
    man = 2 * r + (1 if rest or r * r != q else 0)
    return mp.make_mpf(from_man_exp(man, exp - j - 1, prec, round_nearest))


def _squares(parts):
    """The squared magnitudes of the flat Gaussian integers re0, im0, ..."""
    return [re * re + im * im for re, im in zip(parts[0::2], parts[1::2])]


def max_abs(values, prec):
    """max |c| over the ``mpc`` values at ``prec`` bits (0 for none),
    correctly rounded from the exact squared magnitudes."""
    parts, shift = gaussian(values)
    return _sqrt_ratio(max(_squares(parts), default=0), 1, shift, prec)


def coefficient_deviation(p, q):
    """Max per-coefficient deviation relative to the coefficient scale:
    max over e of |p_e - q_e| / max(1, |p_e|, |q_e|), at the larger
    precision.  The coefficients and 1 are read exactly, and the ratios of
    squared magnitudes are compared cross-multiplied."""
    keys = list(p.terms.keys() | q.terms.keys())
    parts, _ = gaussian([mpc(1)] + [p.coeff(e) for e in keys]
                        + [q.coeff(e) for e in keys])
    one2 = parts[0] * parts[0]
    a, b = parts[2:2 + 2 * len(keys)], parts[2 + 2 * len(keys):]
    worst_d2, worst_s2 = 0, 1
    for a2, b2, d2 in zip(_squares(a), _squares(b),
                          _squares([x - y for x, y in zip(a, b)])):
        s2 = max(one2, a2, b2)
        if d2 * worst_s2 > worst_d2 * s2:
            worst_d2, worst_s2 = d2, s2
    return _sqrt_ratio(worst_d2, worst_s2, 0, max(p.prec, q.prec))


def max_pairwise_deviation(fox, theorem, prop32):
    """The largest ``coefficient_deviation`` between the three routes'
    results: fox/theorem, fox/prop32, theorem/prop32."""
    return max(coefficient_deviation(fox.poly, theorem.poly),
               coefficient_deviation(fox.poly, prop32.poly),
               coefficient_deviation(theorem.poly, prop32.poly))


def gaussian(values):
    """Numbers as exact Gaussian integers over one power of two: returns
    (parts, shift) with parts the flat list re0, im0, re1, im1, ... and
    value k = (parts[2k] + i*parts[2k+1]) * 2^shift, where shift is the
    smallest mantissa exponent among the parts.  A non-finite part raises
    ValueError."""
    parts = [x for c in values for x in c._mpc_]
    shift = min((x[2] for x in parts if x[1]), default=0)

    def integer(x):
        sign, man, exp, _ = x
        if not man:
            if exp:   # only zero has no mantissa and exponent 0
                raise ValueError(f"non-finite number {mp.make_mpf(x)}")
            return 0
        return -(man << (exp - shift)) if sign else man << (exp - shift)

    return [integer(x) for x in parts], shift


def _gaussian_terms(terms):
    """A dict {e: mpc} as ({e: (re, im)}, shift), read by ``gaussian``."""
    parts, shift = gaussian(terms.values())
    return dict(zip(terms, zip(parts[0::2], parts[1::2]))), shift


def swept_gaussian(terms, prec):
    """Gaussian-integer coefficients {e: (re, im)} without those at or
    below the sweep cut 2^-(prec-8) times the largest magnitude: the one
    sweep rule, on exact squared magnitudes (an integer |c|^2 exceeds the
    floored squared cut exactly when |c| exceeds the cut)."""
    abs2 = [re * re + im * im for re, im in terms.values()]
    cut2 = max(abs2, default=0) >> 2 * (prec - SWEEP_GUARD_BITS)
    return {e: c for (e, c), a2 in zip(terms.items(), abs2) if a2 > cut2}


def _convolve_into(acc, a, b, sign):
    """acc += sign * a * b for Gaussian-integer coefficient dicts, with
    three integer products per pair of terms: for p = r1 r2 and q = i1 i2,
    the product's parts are p - q and (r1 + i1)(r2 + i2) - p - q."""
    b = [(e2, r2, i2, r2 + i2) for e2, (r2, i2) in b.items()]
    for e1, (r1, i1) in a.items():
        if sign < 0:
            r1, i1 = -r1, -i1
        s1 = r1 + i1
        for e2, r2, i2, s2 in b:
            e = e1 + e2
            p, q = r1 * r2, i1 * i2
            if e in acc:
                re, im = acc[e]
                acc[e] = (re + p - q, im + s1 * s2 - p - q)
            else:
                acc[e] = (p - q, s1 * s2 - p - q)


def _rounded(acc, shift, prec):
    """The LaurentPoly with coefficients (re + i*im) * 2^shift from ``acc``,
    each part rounded once to nearest at ``prec`` bits, then swept."""
    terms = {e: mp.make_mpc((from_man_exp(re, shift, prec, round_nearest),
                             from_man_exp(im, shift, prec, round_nearest)))
             for e, (re, im) in acc.items()}
    return LaurentPoly(terms, prec)


class LaurentPoly:
    """A swept Laurent polynomial at precision ``prec``, built from a dict of
    int exponents to numbers.  ``mpc`` coefficients are kept as they are,
    without a copy or a rounding; any other number is converted to ``mpc``
    at ``prec`` bits.  The dict is then swept into a new one, so the caller's
    dict is never held, and a non-finite coefficient raises ValueError."""

    __slots__ = ("terms", "prec")

    def __init__(self, terms, prec):
        if not all(isinstance(c, mpc) for c in terms.values()):
            with mp.workprec(prec):
                terms = {e: c if isinstance(c, mpc) else mpc(c)
                         for e, c in terms.items()}
        kept = swept_gaussian(_gaussian_terms(terms)[0], prec)
        self.terms = {e: terms[e] for e in kept}
        self.prec = prec

    def coeff(self, e):
        return self.terms.get(e, mpc(0))

    @property
    def min_exp(self):
        return min(self.terms) if self.terms else None

    @property
    def max_exp(self):
        return max(self.terms) if self.terms else None

    def support(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    def shifted(self, k):
        return LaurentPoly({e + k: c for e, c in self.terms.items()}, self.prec)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly({0: other}, self.prec)

    def __add__(self, other):
        other = self._coerce(other)
        prec = max(self.prec, other.prec)
        out = dict(self.terms)
        with mp.workprec(prec):
            for e, c in other.terms.items():
                out[e] = out[e] + c if e in out else c
        return LaurentPoly(out, prec)

    __radd__ = __add__

    def __neg__(self):
        # mpmath rounds even unary minus to the ambient precision
        with mp.workprec(self.prec):
            terms = {e: -c for e, c in self.terms.items()}
        return LaurentPoly(terms, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        (a, sa), (b, sb) = _gaussian_terms(self.terms), _gaussian_terms(other.terms)
        acc = {}
        _convolve_into(acc, a, b, 1)
        return _rounded(acc, sa + sb, max(self.prec, other.prec))

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"({c})*t^{e}" for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(parts or ["0"]) + ")"


def divide_with_remainder(num, den):
    """Laurent long division from the top exponent down, in Gaussian
    integers.

    Returns (quotient, relative_remainder_norm).  The quotient support is
    contained in [num.min-den.min, num.max-den.max]; anything left after the
    sweep is the remainder, relative to ||num||_inf.  The dividend is scaled
    by 2^g, so that quotient integers of size ||num|| / |d_lead| carry
    prec + 32 bits, and each product with the divisor's tail is subtracted
    exactly.  A partial remainder at or below the sweep cut relative to
    ||num|| is dropped."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    prec = max(num.prec, den.prec)
    if num.is_zero():
        return LaurentPoly({}, prec), mpf(0)
    (a, sa), (d, sd) = _gaussian_terms(num.terms), _gaussian_terms(den.terms)
    dmax = den.max_exp
    qmin = num.min_exp - den.min_exp
    dr, di = d[dmax]
    dlead2 = dr * dr + di * di
    tail = [(e, r, i, r + i) for e, (r, i) in d.items() if e != dmax]
    norm2 = max(re * re + im * im for re, im in a.values())
    g = prec + 32 + max(0, (dlead2.bit_length() - norm2.bit_length()) // 2 + 1)
    rem = {e: (re << g, im << g) for e, (re, im) in a.items()}
    norm2 <<= 2 * g
    cut2 = norm2 >> 2 * (prec - SWEEP_GUARD_BITS)
    quot = {}
    while rem:
        e = max(rem)
        k = e - dmax
        if k < qmin:
            break
        # each step lowers the top exponent; R / d = R conj(d) / |d|^2
        rr, ri = rem.pop(e)
        qr = (2 * (rr * dr + ri * di) + dlead2) // (2 * dlead2)
        qi = (2 * (ri * dr - rr * di) + dlead2) // (2 * dlead2)
        quot[k] = (qr, qi)
        qs = qr + qi
        for de, tr, ti, ts in tail:
            p, q = qr * tr, qi * ti
            wr, wi = rem.get(k + de, (0, 0))
            wr, wi = wr - p + q, wi - qs * ts + p + q
            if wr * wr + wi * wi > cut2:
                rem[k + de] = (wr, wi)
            else:
                rem.pop(k + de, None)
    rem2 = max((re * re + im * im for re, im in rem.values()), default=0)
    return (_rounded(quot, sa - g - sd, prec),
            _sqrt_ratio(rem2, norm2, 0, prec))


class Mat2:
    """2x2 matrix of numbers (a representation matrix), computed at the
    caller's ambient precision."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __mul__(self, other):
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scaled(self, c):
        return Mat2(self.a11 * c, self.a12 * c, self.a21 * c, self.a22 * c)

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def inverse(self):
        """Inverse (adjugate over determinant)."""
        d = self.det()
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)


def poly_mat_det(rows, shift, prec):
    """Determinant of a small square matrix of Laurent polynomials given as
    exact Gaussian integers, by cofactor expansion along the top row, with
    every minor computed once.

    Every entry is a dict {e: (re, im)} of coefficients (re + i*im) *
    2^shift, one ``shift`` for the whole matrix.  The minors of the bottom
    k rows, keyed by their sorted column tuple, are expanded along their own
    top row from the minors of the bottom k-1 rows (a 4x4 takes 28 products,
    not the 40 of the plain recursion).  The expansion is exact, so its
    cancellation costs no precision; each coefficient of the determinant is
    rounded once, to nearest at ``prec``."""
    n = len(rows)
    minors = {(j,): rows[-1][j] for j in range(n)}
    for i in range(n - 2, -1, -1):
        row = rows[i]
        wider = {}
        for cols in combinations(range(n), n - i):
            total = {}
            for pos, j in enumerate(cols):
                _convolve_into(total, row[j], minors[cols[:pos] + cols[pos + 1:]],
                               -1 if pos % 2 else 1)
            wider[cols] = total
        minors = wider
    return _rounded(minors[tuple(range(n))], n * shift, prec)


@dataclass
class DeltaResult:
    """A normalized twisted Alexander polynomial plus its provenance.

    ``sign`` and ``shift`` record the unit +-t^k that was divided out:
    raw = sign * t^(-shift) * poly.  ``remainder`` is the relative
    remainder of the division that produced it (0 for the closed forms).
    """

    poly: LaurentPoly
    sign: int
    shift: int
    method: str
    remainder: object

    @property
    def exact(self):
        """remainder <= half_prec_tol(prec); False for a NaN remainder."""
        return self.remainder <= half_prec_tol(self.poly.prec)


def normalize_delta(poly, method, remainder):
    """Fix Wada's unit ambiguity: shift the minimum exponent to 0 and negate
    if the constant term is closer to -1 than to +1.  Only the unit +-t^k is
    removed; the constant term is never rescaled, so monicity remains a
    genuine check downstream.  ``remainder`` is kept as it is."""
    if poly.is_zero():
        return DeltaResult(poly, 1, 0, method, remainder)
    shift = -poly.min_exp
    p = poly.shifted(shift)
    c0 = p.coeff(0)
    sign = 1
    with mp.workprec(p.prec):
        flip = abs(c0 + 1) < abs(c0 - 1)
    if flip:
        p = -p
        sign = -1
    return DeltaResult(p, sign, shift, method, remainder)
