"""Sparse Laurent polynomials, their exact Gaussian-integer form, and 2x2
number matrices.

A ``LaurentPoly`` maps integer exponents of t to ``mpc`` coefficients and
carries its working precision ``prec``, which its one constructor requires:
there is no default precision below the entry points of ``talex.pretzel``
and ``talex.verify``.  Every operation on a polynomial computes at its
precision (the larger one for two operands).  Sums, negation and long
division run in ``mpc`` arithmetic under ``mp.workprec(prec)``.  Products
are exact: each operand's coefficients are read as Gaussian integers over
one power of two (an ``mpc`` part is a mantissa times a power of two, so
nothing is lost), multiplied and summed as Python integers, and each
coefficient of the result is rounded once, to nearest.

``poly_mat_det`` takes its entries in that exact form, as {e: (re, im)}
dicts over one power of two, and rounds only the determinant's
coefficients: the Fox blocks of ``talex.fox`` reach it as the exact sums
the relator walk made, never as ``mpc``.

Every polynomial is swept when it is built, whatever built it: a
coefficient with magnitude at most 2^-(prec-8) relative to the sup-norm is
dropped to structural zero, so supports stay finite and degree queries stay
meaningful, and the spread of exponents stays bounded, so the exact
products' integers stay near 2*prec bits.  ``swept_gaussian`` is the same
cut on exact coefficients.  The sweep compares squared magnitudes |c|^2 =
re^2 + im^2 with the squared cut, so it takes no square root, and it is the
one place that refuses a non-finite coefficient, with ``ValueError``: a NaN
would otherwise fail every comparison and vanish, and an infinity would
sweep every other term away.  So no polynomial holds a non-finite
coefficient, and the kernels (the exact products, long division) do not
check for one again.  Long division drops its partial remainders by the
same cut.  Norms (``max_abs``, ``infnorm``, the division's remainder,
``coefficient_deviation``) compare squared magnitudes and take one square
root per value.  ``half_prec_tol(prec)`` = 2^-(prec/2) is what a
``prec``-bit result must resolve: a division's remainder
(``DeltaResult.exact``), a root's residual, and the monicity tolerance.

``Mat2`` is a 2x2 matrix of numbers: the representation matrices.
"""

from dataclasses import dataclass
from itertools import combinations

from mpmath import mp, mpf, mpc
from mpmath.libmp import (finf, fnan, fone, from_man_exp, fzero, mpf_add,
                          mpf_div, mpf_gt, mpf_mul, mpf_shift, mpf_sqrt,
                          mpf_sub, round_nearest)

SWEEP_GUARD_BITS = 8


def half_prec_tol(prec):
    """2^-(prec/2), the relative size a ``prec``-bit result counts as 0."""
    return mpf(2) ** (-(prec // 2))


def _abs2(z, prec):
    """|z|^2 of a raw ``mpc`` pair z = (re, im) as a raw mpmath float,
    rounded at prec + 4 bits like mpmath's own ``abs``; raises ValueError if
    z is not finite."""
    re, im = z
    a2 = mpf_add(mpf_mul(re, re), mpf_mul(im, im), prec + 4)
    if a2 in (finf, fnan):
        raise ValueError(f"non-finite Laurent coefficient {mp.make_mpc(z)}")
    return a2


def _largest(raw):
    """The largest of some nonnegative raw mpmath floats (zero for none)."""
    top = fzero
    for x in raw:
        if mpf_gt(x, top):
            top = x
    return top


def max_abs(values, prec):
    """max |c| over the ``mpc`` values at ``prec`` bits (0 for none),
    correctly rounded: squared magnitudes are compared and one square root
    is taken."""
    norm2 = _largest(_abs2(c._mpc_, prec) for c in values)
    return mp.make_mpf(mpf_sqrt(norm2, prec, round_nearest))


def coefficient_deviation(p, q):
    """Max per-coefficient deviation relative to the coefficient scale:
    max over e of |p_e - q_e| / max(1, |p_e|, |q_e|), at the larger
    precision.

    Each difference is taken exactly, and the ratios are compared as
    squared magnitudes (|d|^2 / max(1, |p_e|^2, |q_e|^2), cross-multiplied
    exactly), so the call takes one division and one square root."""
    prec = max(p.prec, q.prec)
    zero = (fzero, fzero)
    worst_d2, worst_s2 = fzero, fone
    for e in p.terms.keys() | q.terms.keys():
        a = p.terms[e]._mpc_ if e in p.terms else zero
        b = q.terms[e]._mpc_ if e in q.terms else zero
        d2 = _abs2((mpf_sub(a[0], b[0]), mpf_sub(a[1], b[1])), prec)
        s2 = _largest((fone, _abs2(a, prec), _abs2(b, prec)))
        if mpf_gt(mpf_mul(d2, worst_s2), mpf_mul(worst_d2, s2)):
            worst_d2, worst_s2 = d2, s2
    return mp.make_mpf(mpf_sqrt(mpf_div(worst_d2, worst_s2, prec + 4), prec,
                                round_nearest))


def max_pairwise_deviation(fox, theorem, prop32):
    """The largest ``coefficient_deviation`` between the three routes'
    results: fox/theorem, fox/prop32, theorem/prop32."""
    return max(coefficient_deviation(fox.poly, theorem.poly),
               coefficient_deviation(fox.poly, prop32.poly),
               coefficient_deviation(theorem.poly, prop32.poly))


def _sweep_cut2(norm2, prec):
    """The squared sweep cut (2^-(prec-8) * norm)^2, from the squared norm."""
    return mpf_shift(norm2, -2 * (prec - SWEEP_GUARD_BITS))


def gaussian(values):
    """Numbers as exact Gaussian integers over one power of two: returns
    (parts, shift) with parts the flat list re0, im0, re1, im1, ... and
    value k = (parts[2k] + i*parts[2k+1]) * 2^shift, where shift is the
    smallest mantissa exponent among the parts."""
    parts = [x for c in values for x in c._mpc_]
    shift = min((x[2] for x in parts if x[1]), default=0)

    def integer(x):
        sign, man, exp, _ = x
        if not man:
            return 0
        return -(man << (exp - shift)) if sign else man << (exp - shift)

    return [integer(x) for x in parts], shift


def _gaussian_terms(poly):
    """The coefficients of ``poly`` as ({e: (re, im)}, shift), read as
    ``gaussian`` reads them."""
    parts, shift = gaussian(poly.terms.values())
    return dict(zip(poly.terms, zip(parts[0::2], parts[1::2]))), shift


def swept_gaussian(terms, prec):
    """Gaussian-integer coefficients {e: (re, im)} without those at or
    below the sweep cut 2^-(prec-8) times the largest magnitude, the
    ``LaurentPoly`` sweep on exact squared magnitudes."""
    abs2 = {e: re * re + im * im for e, (re, im) in terms.items()}
    norm2 = max(abs2.values(), default=0)
    bits = 2 * (prec - SWEEP_GUARD_BITS)
    return {e: c for e, c in terms.items() if abs2[e] << bits > norm2}


def _convolve_into(acc, a, b, sign):
    """acc += sign * a * b for Gaussian-integer coefficient dicts."""
    for e1, (r1, i1) in a.items():
        if sign < 0:
            r1, i1 = -r1, -i1
        for e2, (r2, i2) in b.items():
            e = e1 + e2
            re, im = acc.get(e, (0, 0))
            acc[e] = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)


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
        abs2 = {e: _abs2(c._mpc_, prec) for e, c in terms.items()}
        cut2 = _sweep_cut2(_largest(abs2.values()), prec)
        self.terms = {e: c for e, c in terms.items() if mpf_gt(abs2[e], cut2)}
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

    def infnorm(self):
        return max_abs(self.terms.values(), self.prec)

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
        (a, sa), (b, sb) = _gaussian_terms(self), _gaussian_terms(other)
        acc = {}
        _convolve_into(acc, a, b, 1)
        return _rounded(acc, sa + sb, max(self.prec, other.prec))

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"({c})*t^{e}" for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(parts or ["0"]) + ")"


def divide_with_remainder(num, den):
    """Laurent long division from the top exponent down.

    Returns (quotient, relative_remainder_norm).  The quotient support is
    contained in [num.min-den.min, num.max-den.max]; anything left after the
    sweep is the remainder, reported relative to ||num||_inf.  A partial
    remainder at or below the sweep cut is dropped.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    prec = max(num.prec, den.prec)
    num_norm = num.infnorm()
    if num_norm == 0:
        return LaurentPoly({}, prec), mpf(0)
    dmax = den.max_exp
    qmin = num.min_exp - den.min_exp
    with mp.workprec(prec):
        cut2 = _sweep_cut2((num_norm * num_norm)._mpf_, prec)
        dlead = den.terms[dmax]
        dtail = [(e, c) for e, c in den.terms.items() if e != dmax]
        rem = dict(num.terms)
        quot = {}
        while rem:
            e = max(rem)
            if e - dmax < qmin:
                break
            # every step lowers the top exponent, so each quotient
            # exponent is set once
            co = quot[e - dmax] = rem.pop(e) / dlead
            for ee, vv in dtail:
                k = e - dmax + ee
                w = rem.get(k, 0) - co * vv
                if mpf_gt(_abs2(w._mpc_, prec), cut2):
                    rem[k] = w
                elif k in rem:
                    del rem[k]
        rel_rem = max_abs(rem.values(), prec) / num_norm
    return LaurentPoly(quot, prec), rel_rem


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
    not the 40 of the plain recursion).  Each product, sign and sum of the
    expansion is exact; each coefficient of the determinant is rounded
    once, to nearest at ``prec``, and the result is swept once.  The
    cancellation inside the expansion therefore costs no precision."""
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
