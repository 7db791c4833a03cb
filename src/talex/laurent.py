"""Sparse Laurent polynomials and 2x2 matrices over them.

A ``LaurentPoly`` maps integer exponents of t to ``mpc`` coefficients and
carries its working precision ``prec``: every operation on it runs under
``mp.workprec(prec)`` (the larger one for two operands).  After every
arithmetic operation coefficients with magnitude below 2^-(prec-8) relative
to the polynomial's sup-norm are swept to structural zero, so supports stay
finite and degree queries stay meaningful.

``Mat2`` is a 2x2 matrix whose entries are either all numbers
(representation matrices, computed at the caller's ambient precision) or
all LaurentPolys (Phi-images); the two flavors share one class since the
algebra is entrywise-generic.
"""

from dataclasses import dataclass, field

from mpmath import mp, mpf, mpc

from .errors import InexactDivision

DEFAULT_PREC = 256
SWEEP_GUARD_BITS = 8


class LaurentPoly:
    __slots__ = ("terms", "prec")

    def __init__(self, terms=None, prec=DEFAULT_PREC, sweep=True):
        self.prec = prec
        with mp.workprec(prec):
            self.terms = {int(e): mpc(c) for e, c in (terms or {}).items()}
            if sweep:
                self._sweep()

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, prec=DEFAULT_PREC):
        return cls({}, prec)

    @classmethod
    def one(cls, prec=DEFAULT_PREC):
        return cls({0: 1}, prec)

    @classmethod
    def term(cls, coeff, exp, prec=DEFAULT_PREC):
        return cls({exp: coeff}, prec)

    # -- structure --------------------------------------------------------

    def _sweep(self):
        if not self.terms:
            return
        norm = self.infnorm()
        if norm == 0:
            self.terms = {}
            return
        cut = mpf(2) ** (-(self.prec - SWEEP_GUARD_BITS)) * norm
        self.terms = {e: c for e, c in self.terms.items() if abs(c) > cut}

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
        return LaurentPoly({e + k: c for e, c in self.terms.items()}, self.prec, sweep=False)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, float, complex, mpf, mpc)):
            return LaurentPoly({0: other}, self.prec, sweep=False)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        return LaurentPoly(terms, self.prec, sweep=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self.prec, other.prec)
        with mp.workprec(prec):
            acc = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc, prec)

    __rmul__ = __mul__

    def eval_at(self, t):
        """Value of the polynomial at a number t (t must be nonzero if
        negative exponents are present)."""
        with mp.workprec(self.prec):
            total = mpc(0)
            for e, c in self.terms.items():
                total += c * t ** e
            return total

    def __repr__(self):
        parts = [f"({c})*t^{e}" for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(parts or ["0"]) + ")"


def divide_with_remainder(num, den):
    """Laurent long division from the top exponent down.

    Returns (quotient, relative_remainder_norm).  The quotient support is
    contained in [num.min-den.min, num.max-den.max]; anything left after the
    sweep is the remainder, reported relative to ||num||_inf.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    prec = max(num.prec, den.prec)
    num_norm = num.infnorm()
    if num_norm == 0:
        return LaurentPoly.zero(prec), mpf(0)
    dmax = den.max_exp
    qmin = num.min_exp - den.min_exp
    with mp.workprec(prec):
        cut = mpf(2) ** (-(prec - SWEEP_GUARD_BITS)) * num_norm
        dlead = den.terms[dmax]
        dtail = [(e, c) for e, c in den.terms.items() if e != dmax]
        rem = dict(num.terms)
        quot = {}
        while rem:
            e = max(rem)
            if e - dmax < qmin:
                break
            co = rem.pop(e) / dlead
            quot[e - dmax] = quot.get(e - dmax, 0) + co
            for ee, vv in dtail:
                k = e - dmax + ee
                w = rem.get(k, 0) - co * vv
                if abs(w) > cut:
                    rem[k] = w
                elif k in rem:
                    del rem[k]
        rem_norm = max((abs(v) for v in rem.values()), default=mpf(0))
        rel_rem = rem_norm / num_norm
    return LaurentPoly(quot, prec), rel_rem


def laurent_divide_exact(num, den):
    """Exact quotient num/den; raises InexactDivision if a remainder above
    2^-(prec/2) * ||num||_inf is left."""
    rel_tol = mpf(2) ** (-(max(num.prec, den.prec) // 2))
    q, rel_rem = divide_with_remainder(num, den)
    if rel_rem > rel_tol:
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

    @classmethod
    def identity_poly(cls, prec=DEFAULT_PREC):
        return cls(LaurentPoly.one(prec), LaurentPoly.zero(prec),
                   LaurentPoly.zero(prec), LaurentPoly.one(prec))

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

    def to_laurent(self, t_exp, prec):
        """Embed a number matrix as a one-term LaurentPoly matrix M * t^k
        at ``prec`` bits."""
        return Mat2(*(LaurentPoly.term(e, t_exp, prec) for e in self.entries()))

    def infnorm(self):
        vals = []
        for e in self.entries():
            vals.append(e.infnorm() if isinstance(e, LaurentPoly) else abs(e))
        return max(vals)


def poly_mat_det(rows):
    """Cofactor-expansion determinant of a small square LaurentPoly matrix."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * poly_mat_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


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
    context: object = field(default=None, repr=False)

    def degree(self):
        return self.poly.max_exp

    def coeff(self, e):
        return self.poly.coeff(e)


def normalize_delta(poly, method, context=None):
    """Fix Wada's unit ambiguity: shift the minimum exponent to 0 and negate
    if the constant term is closer to -1 than to +1.  Only the unit +-t^k is
    removed; the constant term is never rescaled, so monicity remains a
    genuine check downstream."""
    if poly.is_zero():
        return DeltaResult(poly, 1, 0, method, context)
    shift = -poly.min_exp
    p = poly.shifted(shift)
    c0 = p.coeff(0)
    sign = 1
    with mp.workprec(p.prec):
        flip = abs(c0 + 1) < abs(c0 - 1)
    if flip:
        p = -p
        sign = -1
    return DeltaResult(p, sign, shift, method, context)
