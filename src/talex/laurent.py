"""Sparse Laurent polynomials and 2x2 matrices over them.

A ``LaurentPoly`` maps integer exponents of t to ``mpc`` coefficients and
carries its working precision ``prec``, which its one constructor requires:
there is no default precision below the entry points of ``talex.pretzel``
and ``talex.verify``.  Every operation on a polynomial computes at its
precision (the larger one for two operands).  Sums, negation and long
division run in ``mpc`` arithmetic under ``mp.workprec(prec)``.  Products
and ``poly_mat_det`` are exact: each operand's coefficients are read as
Gaussian integers over one power of two (an ``mpc`` part is a mantissa
times a power of two, so nothing is lost), multiplied and summed as Python
integers, and each coefficient of the result is rounded once, to nearest.

Every polynomial is swept when it is built, whatever built it: a
coefficient with magnitude at most 2^-(prec-8) relative to the sup-norm is
dropped to structural zero, so supports stay finite and degree queries stay
meaningful, and the spread of exponents stays bounded, so the exact
products' integers stay near 2*prec bits.  The sweep compares squared
magnitudes |c|^2 = re^2 + im^2 with the squared cut, so it takes no square
root, and it is the one place that refuses a non-finite coefficient, with
``ValueError``: a NaN would otherwise fail every comparison and vanish, and
an infinity would sweep every other term away.  So no polynomial holds a
non-finite coefficient, and the kernels (the exact products, long division)
do not check for one again.  Long division drops its partial remainders by
the same cut.

``Mat2`` is a 2x2 matrix whose entries are either all numbers
(representation matrices, computed at the caller's ambient precision) or
all LaurentPolys (Phi-images); the two flavors share one class since the
algebra is entrywise-generic.
"""

from dataclasses import dataclass
from itertools import combinations

from mpmath import mp, mpf, mpc
from mpmath.libmp import (finf, fnan, from_man_exp, fzero, mpf_add, mpf_gt,
                          mpf_mul, mpf_shift, round_nearest)

from .errors import InexactDivision

SWEEP_GUARD_BITS = 8


def _abs2(c, prec):
    """|c|^2 of an ``mpc`` as a raw mpmath float, rounded at prec + 4 bits
    like mpmath's own ``abs``; raises ValueError if c is not finite."""
    re, im = c._mpc_
    a2 = mpf_add(mpf_mul(re, re), mpf_mul(im, im), prec + 4)
    if a2 in (finf, fnan):
        raise ValueError(f"non-finite Laurent coefficient {c}")
    return a2


def _sweep_cut2(norm2, prec):
    """The squared sweep cut (2^-(prec-8) * norm)^2, from the squared norm."""
    return mpf_shift(norm2, -2 * (prec - SWEEP_GUARD_BITS))


def _gaussian(poly):
    """The coefficients of ``poly`` as exact Gaussian integers over one power
    of two: returns ({e: (re, im)}, shift) with c_e = (re + i*im) * 2^shift,
    where shift is the smallest mantissa exponent among the coefficients."""
    parts = [x for c in poly.terms.values() for x in c._mpc_]
    shift = min((x[2] for x in parts if x[1]), default=0)

    def integer(x):
        sign, man, exp, _ = x
        if not man:
            return 0
        return -(man << (exp - shift)) if sign else man << (exp - shift)

    return {e: (integer(c._mpc_[0]), integer(c._mpc_[1]))
            for e, c in poly.terms.items()}, shift


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
        abs2 = {e: _abs2(c, prec) for e, c in terms.items()}
        norm2 = fzero
        for a2 in abs2.values():
            if mpf_gt(a2, norm2):
                norm2 = a2
        cut2 = _sweep_cut2(norm2, prec)
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
        with mp.workprec(self.prec):
            return max((abs(c) for c in self.terms.values()), default=mpf(0))

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
        (a, sa), (b, sb) = _gaussian(self), _gaussian(other)
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
                if mpf_gt(_abs2(w, prec), cut2):
                    rem[k] = w
                elif k in rem:
                    del rem[k]
        rem_norm = max((abs(v) for v in rem.values()), default=mpf(0))
        rel_rem = rem_norm / num_norm
    return LaurentPoly(quot, prec), rel_rem


def laurent_divide_exact(num, den):
    """Exact quotient num/den; raises InexactDivision if a remainder above
    2^-(prec/2) * ||num||_inf is left, or if that remainder is not a
    number."""
    rel_tol = mpf(2) ** (-(max(num.prec, den.prec) // 2))
    q, rel_rem = divide_with_remainder(num, den)
    if not rel_rem <= rel_tol:
        raise InexactDivision(
            f"relative remainder {rel_rem} exceeds tolerance {rel_tol}"
        )
    return q


class Mat2:
    """2x2 matrix with number or LaurentPoly entries."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    @classmethod
    def identity(cls):
        one, zero = mpc(1), mpc(0)
        return cls(one, zero, zero, one)

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __add__(self, other):
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other):
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a11 * other.a11 + self.a12 * other.a21,
                self.a11 * other.a12 + self.a12 * other.a22,
                self.a21 * other.a11 + self.a22 * other.a21,
                self.a21 * other.a12 + self.a22 * other.a22,
            )
        return self.scaled(other)

    def scaled(self, c):
        return Mat2(self.a11 * c, self.a12 * c, self.a21 * c, self.a22 * c)

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def inverse(self):
        """Inverse of a number-flavored matrix (adjugate over determinant)."""
        d = self.det()
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    def infnorm(self):
        vals = []
        for e in self.entries():
            vals.append(e.infnorm() if isinstance(e, LaurentPoly) else abs(e))
        return max(vals)


def poly_mat_det(rows):
    """Determinant of a small square LaurentPoly matrix by cofactor
    expansion along the top row, with every minor computed once.

    The minors of the bottom k rows, keyed by their sorted column tuple, are
    expanded along their own top row from the minors of the bottom k-1 rows
    (a 4x4 takes 28 products, not the 40 of the plain recursion).  Every
    entry is converted once to Gaussian integers over the matrix's smallest
    power of two, so each product, sign and sum of the expansion is exact;
    each coefficient of the determinant is rounded once, to nearest at the
    entries' largest precision, and the result is swept once.  The
    cancellation inside the expansion therefore costs no precision."""
    n = len(rows)
    prec = max(p.prec for row in rows for p in row)
    exact = [[_gaussian(p) for p in row] for row in rows]
    base = min((s for row in exact for terms, s in row if terms), default=0)
    ints = [[{e: (re << (s - base), im << (s - base))
              for e, (re, im) in terms.items()} for terms, s in row]
            for row in exact]
    minors = {(j,): ints[-1][j] for j in range(n)}
    for i in range(n - 2, -1, -1):
        row = ints[i]
        wider = {}
        for cols in combinations(range(n), n - i):
            total = {}
            for pos, j in enumerate(cols):
                _convolve_into(total, row[j], minors[cols[:pos] + cols[pos + 1:]],
                               -1 if pos % 2 else 1)
            wider[cols] = total
        minors = wider
    return _rounded(minors[tuple(range(n))], n * base, prec)


@dataclass
class DeltaResult:
    """A normalized twisted Alexander polynomial plus its provenance.

    ``sign`` and ``shift`` record the unit +-t^k that was divided out:
    raw = sign * t^(-shift) * poly.
    """

    poly: LaurentPoly
    sign: int
    shift: int
    method: str


def normalize_delta(poly, method):
    """Fix Wada's unit ambiguity: shift the minimum exponent to 0 and negate
    if the constant term is closer to -1 than to +1.  Only the unit +-t^k is
    removed; the constant term is never rescaled, so monicity remains a
    genuine check downstream."""
    if poly.is_zero():
        return DeltaResult(poly, 1, 0, method)
    shift = -poly.min_exp
    p = poly.shifted(shift)
    c0 = p.coeff(0)
    sign = 1
    with mp.workprec(p.prec):
        flip = abs(c0 + 1) < abs(c0 - 1)
    if flip:
        p = -p
        sign = -1
    return DeltaResult(p, sign, shift, method)
