"""Sparse Laurent polynomials on Gaussian integers.

A ``LaurentPoly`` stores its coefficients as Gaussian integers over one
power of two, ``terms`` = {e: (re, im)} with coefficient e equal to (re +
i*im) * 2^``shift``, and carries its working precision ``prec``, which its
one constructor requires: there is no default precision below the entry
points of ``talex.pretzel`` and ``talex.verify``.  Each part is a
``prec``-bit number, exactly what an ``mpc`` at ``prec`` holds, and
``shift`` is the largest power of two that keeps every part an integer.
``mpc`` values cross the boundary twice only: the constructor reads a
dict of numbers exactly (``gaussian``: an ``mpc`` part is a mantissa times
a power of two), and ``coeff(e)`` builds the ``mpc`` of one coefficient,
for the closed forms, the comparisons and printing.

Every operation on polynomials computes at its precision (the larger one
for two operands) in Python integers and rounds each coefficient of its
result once, to nearest at ``prec`` bits: so sums and negation give the
bits that ``mpc`` arithmetic gives; products take three integer products
per pair of terms; ``poly_mat_det`` takes its entries in the same exact
form from the relator walk of ``talex.fox``; and ``divide_with_remainder``
takes each quotient coefficient as the Gaussian integer nearest R_top /
d_lead, with the dividend scaled so that a quotient part at the sweep cut
still carries prec + 32 bits.

Every polynomial is swept when it is built: a coefficient with magnitude at
most 2^-(prec-8) relative to the sup-norm is dropped to structural zero, so
supports stay finite, degree queries stay meaningful, and the exact
integers stay near 2*prec bits.  The one sweep rule, ``swept_gaussian``,
compares exact squared magnitudes with the squared cut, after the
rounding; long division drops its partial remainders by the same cut
relative to the dividend.  The constructor drops, before its exact read,
a coefficient whose top bit lies more than ``prec`` bits below the
largest, which the rule drops anyway.  ``gaussian`` refuses a non-finite
number with ``ValueError`` (it has no mantissa, so it would read as 0), so
no polynomial holds one.  Norms (``max_abs``, the division's remainder,
``coefficient_deviation``) compare exact squared magnitudes and take one
correctly rounded square root, ``sqrt_ratio``.  ``half_prec_tol(prec)``
= 2^-(prec/2) is what a ``prec``-bit result must resolve: a division's
remainder (``DeltaResult.exact``), a root's residual, and the monicity
tolerance.

Every rounding to nearest follows one rule, ties to even, as mpmath rounds;
it is odd, so the Fox route at -m is t -> -t of the one at m bit for bit.
``fit`` applies it on one power of two to the fixed-point numbers (the Fox
prefix products and inverses, the rows and s-powers of ``BivarPoly.eval``;
``fit_quotient`` for a quotient) with the one guard ``GUARD_BITS`` = 64
beyond ``prec``, and ``Gauss`` is the value type that applies it to each
sum, product and quotient (the closed forms, the holonomy images, the
degeneracy flags; ``aligned`` puts values on one power of two exactly).
``_round`` (one part at ``prec`` bits), ``nearest`` (any divisor: the
division's quotient, the solver's Newton step), ``reciprocal`` (1/z onto a
fixed point) and ``read_fixed`` (s, or 1/s, onto the fixed point of eval's
Horner and the solver's) spell it again.
"""

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, fzero, round_nearest

SWEEP_GUARD_BITS = 8
GUARD_BITS = 64


def half_prec_tol(prec):
    """2^-(prec/2), the relative size a ``prec``-bit result counts as 0."""
    return mpf(2) ** (-(prec // 2))


def fit(parts, exp, bits):
    """Integers ``parts`` over 2^exp rounded to nearest, ties to even, on
    one power of two: (parts, exp) as they are if the largest magnitude has
    at most ``bits`` bits, else every part shifted right by the k bits of
    excess, with exp + k.  Each part moves by at most half a unit of
    2^(exp + k).  A carry can lift the largest magnitude to exactly 2^bits,
    one bit over: 2^(bits+1) - 1 rounds to 2^bits."""
    k = max(map(abs, parts)).bit_length() - bits
    if k <= 0:
        return parts, exp
    # floor((x + half) / 2^k), less one at an exact half over an even floor
    low = (1 << (k - 1)) - 1
    return [(x + low + (x >> k & 1)) >> k for x in parts], exp + k


def fit_quotient(parts, norm, exp, bits):
    """(parts / norm) 2^exp for integers ``parts``, norm > 0, ``fit`` to
    ``bits``: each quotient is read as its floor, with bits + 2 bits or more
    and a sticky last bit (2q + 1 if inexact, as in ``sqrt_ratio``), so no
    rounding boundary or tie separates it from the quotient; both are odd."""
    up = max(0, bits + 2 + norm.bit_length() - max(map(abs, parts)).bit_length())
    floors = [divmod(x << up, norm) for x in parts]
    return fit([2 * q + (r != 0) for q, r in floors], exp - up - 1, bits)


class Gauss:
    """(re + i im) 2^exp, its parts ``fit`` to ``bits``: each sum, product
    and quotient is taken exactly, then ``fit`` (``fit_quotient``), so every
    operation is odd and a tiny value keeps its relative precision."""

    __slots__ = ("re", "im", "exp", "bits")

    def __init__(self, parts, exp, bits):
        (self.re, self.im), self.exp = fit(parts, exp, bits)
        self.bits = bits

    @staticmethod
    def read(bits, *values):
        """1 and the ``mpc`` values as ``Gauss`` at ``bits``, each read
        exactly (``gaussian``), then ``fit``."""
        parts, shift = gaussian([mpc(1), *values])
        return [Gauss(parts[i:i + 2], shift, bits) for i in range(0, len(parts), 2)]

    def __add__(self, other):
        e = min(self.exp, other.exp)
        a, b = self.exp - e, other.exp - e
        return Gauss(((self.re << a) + (other.re << b),
                      (self.im << a) + (other.im << b)), e, self.bits)

    def __neg__(self):
        return Gauss((-self.re, -self.im), self.exp, self.bits)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return Gauss((a * c - b * d, a * d + b * c), self.exp + other.exp, self.bits)

    def __pow__(self, k):   # k >= 1, by repeated squaring
        out = self
        for bit in bin(k)[3:]:
            out = out * out * self if bit == "1" else out * out
        return out

    def __truediv__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return Gauss(*fit_quotient((a * c + b * d, b * c - a * d), c * c + d * d,
                                   self.exp - other.exp, self.bits), self.bits)

    def mpc(self, prec):
        """The value rounded to nearest at ``prec``."""
        return mp.make_mpc((from_man_exp(self.re, self.exp, prec, round_nearest),
                            from_man_exp(self.im, self.exp, prec, round_nearest)))


def aligned(values):
    """``Gauss`` values exactly as ``gaussian`` reads numbers: (parts, shift)."""
    shift = min((g.exp for g in values if g.re or g.im), default=0)
    return [x << g.exp - shift if x else 0 for g in values for x in (g.re, g.im)], shift


def nearest(x, d):
    """The integer x over d > 0 rounded to nearest, ties to even: ``fit``'s
    rule for a divisor that need not be a power of two."""
    q, r = divmod(2 * x + d, 2 * d)
    return q - (not r and q & 1)


def reciprocal(re, im, exp, bits):
    """1/z on the fixed point 2^-bits for z = (re + i im) 2^exp != 0: the
    Gaussian integer nearest 2^bits / z = (re - i im) 2^(bits - exp) / (re^2
    + im^2), each part rounded once from its exact value (``nearest``)."""
    norm, up = re * re + im * im, bits - exp
    if up < 0:
        norm, up = norm << -up, 0
    return nearest(re << up, norm), nearest(-im << up, norm)


def read_fixed(z, bits):
    """``(zr, zi, inverted)``: the ``mpc`` z on the fixed point 2^-bits, the
    Gaussian integer nearest z 2^bits, or, if that has modulus above 2^bits,
    the one nearest 2^bits / z (z != 0), with ``inverted`` True.  Each part
    is rounded once from its exact value, to nearest, ties to even (``fit``'s
    shift on a fixed power of two, ``reciprocal`` for the quotient), so a
    part and its negation read to negatives."""
    parts = []
    for sign, man, exp, _ in z._mpc_:
        x, k = -man if sign else man, -exp - bits
        parts.append(x << -k if k <= 0 else (x + (1 << (k - 1)) - 1 + (x >> k & 1)) >> k)
    zr, zi = parts
    if zr * zr + zi * zi <= 1 << 2 * bits:
        return zr, zi, False
    (re, im), e = gaussian([z])
    return (*reciprocal(re, im, e, bits), True)


def sqrt_ratio(a, b, exp, prec):
    """sqrt(a / b) * 2^exp for integers a >= 0, b > 0, correctly rounded at
    ``prec``: r = isqrt(a 4^j / b) has prec + 2 bits or more, and an inexact
    root is rounded as 2r + 1, which lies where 2 sqrt(a 4^j / b) does,
    strictly between 2r and 2r + 2."""
    j = max(0, prec + 4 - (a.bit_length() - b.bit_length()) // 2)
    q, rest = divmod(a << 2 * j, b)
    r = isqrt(q)
    man = 2 * r + (1 if rest or r * r != q else 0)
    return mp.make_mpf(from_man_exp(man, exp - j - 1, prec, round_nearest))


def max_abs(p, exps):
    """max |c_e| over the exponents ``exps`` of the LaurentPoly p (0 for
    none), correctly rounded at ``p.prec`` from the exact squared
    magnitudes of its stored integers."""
    abs2 = (re * re + im * im for re, im in (p.terms.get(e, (0, 0)) for e in exps))
    return sqrt_ratio(max(abs2, default=0), 1, p.shift, p.prec)


def coefficient_deviation(p, q):
    """Max per-coefficient deviation relative to the coefficient scale:
    max over e of |p_e - q_e| / max(1, |p_e|, |q_e|), at the larger
    precision.  The stored integers and 1 are brought to one power of two,
    and the ratios of squared magnitudes are compared by their bit lengths,
    or cross-multiplied where the bit lengths do not decide."""
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
        # 2^(L-1) <= x < 2^L for x > 0 of bit length L: a gap of 2 decides
        gap = (d2.bit_length() + worst_s2.bit_length()
               - worst_d2.bit_length() - s2.bit_length())
        if d2 and (not worst_d2 or gap >= 2
                   or gap > -2 and d2 * worst_s2 > worst_d2 * s2):
            worst_d2, worst_s2 = d2, s2
    return sqrt_ratio(worst_d2, worst_s2, 0, max(p.prec, q.prec))


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


def swept_gaussian(terms, prec):
    """Gaussian-integer coefficients {e: (re, im)} without those at or
    below the sweep cut 2^-(prec-8) times the largest magnitude: the one
    sweep rule, on exact squared magnitudes (an integer |c|^2 exceeds the
    floored squared cut exactly when |c| exceeds the cut)."""
    abs2 = [re * re + im * im for re, im in terms.values()]
    cut2 = max(abs2, default=0) >> 2 * (prec - SWEEP_GUARD_BITS)
    return {e: c for (e, c), a2 in zip(terms.items(), abs2) if a2 > cut2}


def convolve_into(acc, a, b, sign):
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


def _round(x, prec):
    """The integer x rounded to nearest at ``prec`` significant bits: ``fit``
    of the one part x, written out for speed, and scaled back."""
    k = x.bit_length() - prec
    if k <= 0:
        return x
    return (x + (1 << (k - 1)) - 1 + (x >> k & 1)) >> k << k


def _made(terms, shift, prec):
    """The LaurentPoly holding ``terms`` over 2^shift as they are."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms, p.shift, p.prec = terms, shift, prec
    return p


def rounded(acc, shift, prec):
    """The LaurentPoly with coefficients (re + i*im) * 2^shift from ``acc``,
    each part rounded once to nearest at ``prec`` bits, then swept, and
    stored over the largest power of two that keeps every part an integer."""
    kept = swept_gaussian({e: (_round(re, prec), _round(im, prec))
                           for e, (re, im) in acc.items()}, prec)
    low = 0
    for re, im in kept.values():
        low |= re | im
    k = (low & -low).bit_length() - 1
    if k <= 0:
        return _made(kept, shift if kept else 0, prec)
    return _made({e: (re >> k, im >> k) for e, (re, im) in kept.items()},
                 shift + k, prec)


class LaurentPoly:
    """A swept Laurent polynomial at precision ``prec`` on Gaussian integers
    (see the module docstring), built from a dict of int exponents to
    numbers, any of them not an ``mpc`` converted at ``prec`` bits.  The
    caller's dict is never held, and a non-finite coefficient raises
    ValueError."""

    __slots__ = ("terms", "shift", "prec")

    def __init__(self, terms, prec):
        with mp.workprec(prec):
            values = {e: c if isinstance(c, mpc) else mpc(c)
                      for e, c in terms.items()}
        # more than prec bits below the top is under the sweep cut: dropped
        # unread, as reading it would cost integers as long as the spread
        top = max((x[2] + x[3] for c in values.values() for x in c._mpc_ if x[1]),
                  default=0)
        values = {e: c for e, c in values.items()
                  if not all(x[2] + x[3] < top - prec if x[1] else x == fzero
                             for x in c._mpc_)}
        parts, shift = gaussian(values.values())
        p = rounded(dict(zip(values, zip(parts[0::2], parts[1::2]))), shift, prec)
        self.terms, self.shift, self.prec = p.terms, p.shift, prec

    def coeff(self, e):
        re, im = self.terms.get(e, (0, 0))
        return mp.make_mpc((from_man_exp(re, self.shift),
                            from_man_exp(im, self.shift)))

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
        return _made({e + k: c for e, c in self.terms.items()}, self.shift,
                     self.prec)

    def reflected(self, k):
        """The polynomial with coefficient e moved to k - e."""
        return _made({k - e: c for e, c in self.terms.items()}, self.shift, self.prec)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly({0: other}, self.prec)

    def __add__(self, other):
        other = self._coerce(other)
        base = min([x.shift for x in (self, other) if x.terms], default=0)
        acc = {}
        for x in (self, other):
            up = x.shift - base
            for e, (re, im) in x.terms.items():
                re, im = re << up, im << up
                if e in acc:
                    re0, im0 = acc[e]
                    re, im = re0 + re, im0 + im
                acc[e] = (re, im)
        return rounded(acc, base, max(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return _made({e: (-re, -im) for e, (re, im) in self.terms.items()},
                     self.shift, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        acc = {}
        convolve_into(acc, self.terms, other.terms, 1)
        return rounded(acc, self.shift + other.shift, max(self.prec, other.prec))

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"({self.coeff(e)})*t^{e}" for e in sorted(self.terms)]
        return "LaurentPoly(" + " + ".join(parts or ["0"]) + ")"


def divide_with_remainder(num, den):
    """Laurent long division from the top exponent down, in Gaussian
    integers.

    Returns (quotient, relative_remainder_norm).  The quotient support is
    contained in [num.min-den.min, num.max-den.max]; anything left after the
    sweep is the remainder, relative to ||num||_inf.  The dividend is scaled
    by 2^g, so that quotient integers of size ||num|| / |d_lead| carry
    2 prec + 24 bits (each part ``nearest``): a part down at the sweep cut,
    2^-(prec-8) of the norm, still carries prec + 32 bits of its own, as
    many as ``mpc`` rounding gives it and 32 more.  Each product with the
    divisor's tail is subtracted exactly.  A partial remainder at or below
    the sweep cut relative to ||num|| is dropped."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    prec = max(num.prec, den.prec)
    if num.is_zero():
        return LaurentPoly({}, prec), mpf(0)
    a, sa, d, sd = num.terms, num.shift, den.terms, den.shift
    dmax = den.max_exp
    qmin = num.min_exp - den.min_exp
    dr, di = d[dmax]
    dlead2 = dr * dr + di * di
    tail = [(e, r, i, r + i) for e, (r, i) in d.items() if e != dmax]
    norm2 = max(re * re + im * im for re, im in a.values())
    g = 2 * prec + 24 + max(0, (dlead2.bit_length() - norm2.bit_length()) // 2 + 1)
    rem = {e: (re << g, im << g) for e, (re, im) in a.items()}
    norm2 <<= 2 * g
    cut2 = norm2 >> 2 * (prec - SWEEP_GUARD_BITS)
    # a part of cut_bits + 1 bits or more puts |w|^2 above cut2 unsquared
    cut_bits = (cut2.bit_length() + 1) // 2
    quot = {}
    while rem:
        e = max(rem)
        k = e - dmax
        if k < qmin:
            break
        # each step lowers the top exponent; R / d = R conj(d) / |d|^2
        rr, ri = rem.pop(e)
        qr = nearest(rr * dr + ri * di, dlead2)
        qi = nearest(ri * dr - rr * di, dlead2)
        quot[k] = (qr, qi)
        qs = qr + qi
        for de, tr, ti, ts in tail:
            p, q = qr * tr, qi * ti
            wr, wi = rem.get(k + de, (0, 0))
            wr, wi = wr - p + q, wi - qs * ts + p + q
            if (wr.bit_length() > cut_bits or wi.bit_length() > cut_bits
                    or wr * wr + wi * wi > cut2):
                rem[k + de] = (wr, wi)
            else:
                rem.pop(k + de, None)
    rem2 = max((re * re + im * im for re, im in rem.values()), default=0)
    return (rounded(quot, sa - g - sd, prec),
            sqrt_ratio(rem2, norm2, 0, prec))


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
                convolve_into(total, row[j], minors[cols[:pos] + cols[pos + 1:]],
                              -1 if pos % 2 else 1)
            wider[cols] = total
        minors = wider
    return rounded(minors[tuple(range(n))], n * shift, prec)


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
    # |c0 + 1| < |c0 - 1| exactly when Re c0 < 0: read off the stored integer
    if p.terms[0][0] < 0:
        return DeltaResult(-p, -1, shift, method, remainder)
    return DeltaResult(p, 1, shift, method, remainder)
