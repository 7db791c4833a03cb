"""Everything specific to the (-2,3,2n+1)-pretzel family K_n.

The defining polynomial r0(m, s), the auxiliary quantities alpha, beta, H,
eta_1, eta_2 and the certifying combination r1 are *exact* integer
polynomials in (s, m).  Their printed groupings are written once, as forms
in s, U = s^n and m (``FORMS``), and each builder substitutes U = s^n, so
an identity between forms holds at every n: the tests prove r1 = Q r0,
zeta_1 = 0, r0 | zeta_2 and both palindromies of r0 this way.  The one
exact division, ``BivarPoly.divmod_s``, deflates r0 to the solver's
cofactor (``r0_cofactor``); it refuses a quotient beyond an exact one's
bounds.

``BivarPoly.eval`` is the one numerical evaluator of these polynomials:
rows per (m, precision), Horner per root, so every per-root evaluation at
one m (the solver's residuals, alpha, beta and H) shares one
specialisation.  The rows are the exact values sum_b v m^b (m read exactly
as a Gaussian integer) and their magnitudes, ``fit`` once to prec + 64
bits (``GUARD_BITS``) for the largest magnitude; Horner (``_horner``) runs
on Gaussian integers with s, or 1/s on the reversed row when |s| > 1, read
to nearest at prec + 64 fractional bits (``read_fixed``), each step's shift
a floor: the one truncation, under a unit of 2^-(prec+64) per step, 64
bits below the final rounding (parity in m held bit for bit through it in
every evaluation measured; rounding it cost the solver and verify paths a
few per cent).  The power of s (of 1/s if negative) that the row leaves
out is powered on Gaussian integers, each product ``fit`` to prec + 64
bits, which also give its modulus for the scale; only the result is
rounded to the working precision.
The solver reads eval's row of the cofactor once, seeds from its parts
rounded to the working precision (``mp.polyroots`` with max(50, 2d) steps
at degree d), then polishes and certifies its roots on that row and on its
derivative row, through the same ``_horner``, so a certificate covers the
cofactor at m itself.  Newton stays on Horner's fixed point: each step, and
each 1/s it reads, is an exact Gaussian quotient rounded once, and only the
root is rounded to the working precision.
``solve_s_roots`` returns, per root, the ``PretzelContext`` that
``build_context`` makes there, so alpha, beta and H are evaluated once per
root and the flags are read from them, exactly, as ``Gauss`` values.  The
context also keeps alpha and beta before their rounding, and eta_1, eta_2,
eta_1 + eta_2 and r1 are the paper's forms in those two, linear and
quadratic, with the cofactors of ``FORMS`` (``_cofactors``) taken on
``Gauss``: no per-root evaluation expands them.  Their builders stay, for
the identities the tests prove.  Both take the working precision and enter
it; a context's eta_1, eta_2, their sum, r1 and holonomy matrices
(Gaussian-integer matrices, taken on ``Gauss``), each computed once, on
first use, and the functions of a context run at ``ctx.prec``;
``BivarPoly.eval`` runs at its caller's ambient precision.
The two presentations are built once per n.
``DEFAULT_PREC`` is the default of the entry points, which accept
precisions from ``MIN_PREC`` to ``MAX_PREC``.  The family index runs
from 1 to ``MAX_N``, the largest n whose roots the solver certified at
every m probed (at n = 17 it fails at m = 1.2+0.4i).
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations
from math import isqrt

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_div, round_ceiling,
                          round_nearest)

from .errors import DegenerateContext, NonConvergence
from .fox import Presentation, Relator, Representation, gen, word_invert, word_multiply, word_power
from .laurent import (GUARD_BITS, Gauss, aligned, fit, gaussian, half_prec_tol, nearest,
                      read_fixed, reciprocal)

DEFAULT_PREC = 256
MIN_PREC = 64
MAX_PREC = 4096
MAX_N = 16
DEGENERACY_TOL = mpf("1e-10")


def check_prec(prec):
    if not MIN_PREC <= prec <= MAX_PREC:
        raise ValueError(f"precision_bits must lie in [{MIN_PREC}, {MAX_PREC}], "
                         f"got {prec}")


def check_n(n):
    if not 1 <= n <= MAX_N:
        raise ValueError(f"the family is implemented for 1 <= n <= {MAX_N}, got {n}")


class BivarPoly:
    """Integer polynomial in (s, m), stored sparsely as (s_exp, m_exp) -> int."""

    __slots__ = ("terms", "_rows")

    def __init__(self, terms=None):
        self.terms = {k: int(v) for k, v in (terms or {}).items() if v != 0}
        self._rows = None

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivarPoly(out)

    def __neg__(self):
        return BivarPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivarPoly({k: v * other for k, v in self.terms.items()})
        out = {}
        for (s1, m1), v1 in self.terms.items():
            for (s2, m2), v2 in other.terms.items():
                k = (s1 + s2, m1 + m2)
                out[k] = out.get(k, 0) + v1 * v2
        return BivarPoly(out)

    __rmul__ = __mul__

    def shift(self, s_exp=0, m_exp=0):
        return BivarPoly({(a + s_exp, b + m_exp): v for (a, b), v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def s_degree(self):
        return max((a for a, _ in self.terms), default=None)

    def s_valuation(self):
        return min((a for a, _ in self.terms), default=None)

    def _fixed_row(self, m, bits):
        """``(row, shift, valuation)`` at m: the polynomial in s is
        s^valuation times the row, listed leading first, whose entries
        (re, im, mag) over 2^shift are re + i*im = sum_b v_ab m^b and mag =
        sum_b |v_ab| |m|^b, exact (each |m|^b rounded down to ``bits``
        fractional bits, norm^(b/2) for even b), then ``fit`` once to
        ``bits`` for the largest magnitude."""
        (mr, mi), e = gaussian([m])
        norm = mr * mr + mi * mi
        ms = {b for _, b in self.terms}
        base = min((b * e for b in ms), default=0)
        powers, zr, zi = {}, 1, 0
        for b in range(max(ms, default=0) + 1):
            if b in ms:
                up = b * e - base
                mag = norm ** (b // 2) << bits if b % 2 == 0 else isqrt(norm ** b << 2 * bits)
                powers[b] = (zr << (up + bits), zi << (up + bits), mag << up)
            zr, zi = zr * mr - zi * mi, zr * mi + zi * mr
        lo, hi = self.s_valuation() or 0, self.s_degree() or 0
        row = [[0, 0, 0] for _ in range(hi - lo + 1)]
        for (a, b), v in self.terms.items():
            entry, (pr, pi, pa) = row[hi - a], powers[b]
            entry[0] += v * pr
            entry[1] += v * pi
            entry[2] += abs(v) * pa
        # mag >= |re|, |im| in every entry, so the largest mag sets the budget
        flat, shift = fit([x for entry in row for x in entry], base - bits, bits)
        return list(zip(flat[0::3], flat[1::3], flat[2::3])), shift, lo

    def eval(self, m, s):
        """``(value, scale)`` at ``mpc`` values (m, s), taken as given, at the
        ambient precision: rows per (m, precision), fixed-point Horner per
        root, times the power of s the row leaves out (module docstring).
        The scale is the sum of the term magnitudes at |m|, |s|, against
        which residuals and near-zero tests are measured.  The rows of the
        last (m, precision) are kept, so every root at one m shares them."""
        return self._evaluate(m, s)[:2]

    def _evaluate(self, m, s):
        """``eval``'s value and scale, and the value before its rounding:
        Horner's result times the power of s, ``fit`` to prec + 64 bits, as
        a ``Gauss``."""
        prec = mp.prec
        bits = prec + GUARD_BITS
        if self._rows is None or self._rows[0] != (m, bits):
            self._rows = (m, bits), self._fixed_row(m, bits)
        row, shift, power = self._rows[1]
        zr, zi, inverted = read_fixed(s, bits)
        if inverted:
            row, power = row[::-1], power + len(row) - 1
        re, im, mag = _horner(row, zr, zi, isqrt(zr * zr + zi * zi), bits)
        if power < 0:
            with mp.workprec(bits):
                s, power = 1 / s, -power
        (pr, pi), exp = (1, 0), 0
        (br, bi), bexp = gaussian([s])
        for bit in bin(power)[2:]:
            (pr, pi), exp = fit((pr * pr - pi * pi, 2 * pr * pi), 2 * exp, bits)
            if bit == "1":
                (pr, pi), exp = fit((pr * br - pi * bi, pr * bi + pi * br), exp + bexp, bits)
        pa = isqrt((pr * pr + pi * pi) << 2 * bits)   # |s^power| 2^(bits - exp)
        exp += shift
        re, im = re * pr - im * pi, re * pi + im * pr
        return (mp.make_mpc((from_man_exp(re, exp, prec, round_nearest),
                             from_man_exp(im, exp, prec, round_nearest))),
                mp.make_mpf(from_man_exp(mag * pa, exp - bits, prec, round_nearest)),
                Gauss((re, im), exp, bits))

    def divmod_s(self, divisor):
        """``(quotient, remainder)`` of the long division in s by a divisor
        whose leading s-coefficient is 1: self = quotient * divisor +
        remainder, the remainder of lower s-degree than the divisor, or
        nonzero.  The lowest s-coefficients of both are nonzero polynomials
        in m, so an exact quotient has s-valuation val(self) - val(divisor);
        the division stops before a quotient term would fall below it, and
        what is left is the remainder.  A quotient term beyond the bounds of
        an exact quotient, a factor of self, raises ``ArithmeticError``: its
        m-exponents lie in [val_m(self) - deg_m(divisor), deg_m(self) -
        val_m(divisor)], its coefficients below 2^(s-span + m-span)
        ||self||_2 (Mignotte's bound, through the Mahler measure)."""
        d = divisor.s_degree()
        if {b: v for (a, b), v in divisor.terms.items() if a == d} != {0: 1}:
            raise ValueError("the divisor's leading s-coefficient must be 1")
        lower = [(a, b, v) for (a, b), v in divisor.terms.items() if a < d]
        cols = {}
        for (a, b), v in self.terms.items():
            cols.setdefault(a, {})[b] = v
        ms, ds = [b for _, b in self.terms] or [0], [b for _, b in divisor.terms]
        m_lo, m_hi = min(ms) - max(ds), max(ms) - min(ds)
        span = (self.s_degree() or 0) - (self.s_valuation() or 0) - d + divisor.s_valuation()
        norm2 = sum(v * v for v in self.terms.values())
        limit = max(0, span) + m_hi - m_lo + (norm2.bit_length() + 1) // 2
        stop = d + max(0, (self.s_valuation() or 0) - divisor.s_valuation())
        quot = {}
        for a in range(max(cols, default=d - 1), stop - 1, -1):
            for b, v in cols.pop(a, {}).items():
                if v:  # a coefficient that cancelled leaves no quotient term
                    if not m_lo <= b <= m_hi or v.bit_length() > limit:
                        raise ArithmeticError(f"inexact division: quotient term s^{a - d} "
                                              f"m^{b} is beyond an exact quotient's bounds")
                    quot[(a - d, b)] = v
                    for c, e, w in lower:
                        col = cols.setdefault(a - d + c, {})
                        col[b + e] = col.get(b + e, 0) - v * w
        rem = {(a, b): v for a, col in cols.items() for b, v in col.items()}
        return BivarPoly(quot), BivarPoly(rem)

    def __repr__(self):
        return f"BivarPoly({len(self.terms)} terms, s-deg {self.s_degree()})"


# ---------------------------------------------------------------------------
# the printed polynomials, for every n at once


def _sp(coeffs):
    """Polynomial in s alone from a {s_exp: int} dict."""
    return BivarPoly({(e, 0): c for e, c in coeffs.items()})


# The forms: the printed groupings of r0, alpha, beta, H and of the factors
# of eta_1, eta_2 and r1 that carry n, as polynomials in s, U = s^n and m.
# U is stored as s^_N (a Kronecker substitution): the exponent a + k n is
# written a + k _N, and ``_at`` reads it back as (k, a), since |a| << _N.
_N = 1000
FORMS = {
    "r0": ((_sp({1: 1, 0: -1}) * _sp({2: 1, 1: 2, 0: 1}) * _sp({2 * _N: 1, 2: -1})
            * BivarPoly({(2 * _N + 2, 8): 1, (2 * _N + 2, 0): 1}))
           - (_sp({6 * _N + 3: 1, 6: 1})
              + _sp({6: 2, 5: 1, 4: -4, 3: 1, 2: 1, 1: -1, 0: -1}).shift(s_exp=4 * _N + 1)
              - _sp({6: 1, 5: 1, 4: -1, 3: -1, 2: 4, 1: -1, 0: -2}).shift(s_exp=2 * _N + 2)
              ) * BivarPoly({(0, 6): 1, (0, 2): 1})
           + (_sp({2: 1, 0: 1}) * _sp({6 * _N + 2: 1, 5: 1})
              + _sp({6: 1, 5: 2, 4: -3, 3: -2, 2: 6, 1: -4, 0: -2}).shift(s_exp=4 * _N + 3)
              - _sp({6: 2, 5: 4, 4: -6, 3: 2, 2: 3, 1: -2, 0: -1}).shift(s_exp=2 * _N)
              ).shift(m_exp=4)),
    "alpha": (_sp({2: 1, 0: -1}) * (
        -(_sp({1: 1, 0: -1}) * _sp({2 * _N + 1: 1, 0: 1})).shift(s_exp=2, m_exp=6)
        + (_sp({4: 1, 2: -2, 1: 3, 0: -1}).shift(s_exp=2 * _N + 2)
           + _sp({4: 1, 3: -3, 2: 2, 0: -1})).shift(m_exp=4)
        - (_sp({3: 2, 2: -1, 0: 1}).shift(s_exp=2 * _N)
           - _sp({3: 1, 1: -1, 0: 2}).shift(s_exp=1)).shift(s_exp=1, m_exp=2)
        + _sp({2 * _N: 1, 2: -1}).shift(s_exp=2))).shift(s_exp=2 * _N),
    "beta": ((_sp({2: 1, 0: -1}) * _sp({3: 1, 0: 1})).shift(s_exp=2 * _N + 2, m_exp=7)
             - (_sp({3: 1, 2: -1, 0: 1}).shift(s_exp=4 * _N)
                + (_sp({1: 1, 0: -1}) * _sp({3: 1, 1: 1, 0: 1})
                   * _sp({3: 1, 2: 1, 0: 1})).shift(s_exp=2 * _N - 2)
                - _sp({3: 1, 1: -1, 0: 1})).shift(s_exp=3, m_exp=5)
             + (_sp({3: 1, 0: 1}) * _sp({2 * _N: 1, 0: -1})
                * _sp({2 * _N: 1, 2: 1})).shift(s_exp=2, m_exp=3)
             - (_sp({2 * _N: 1, 2: -1}) * _sp({2 * _N: 1, 1: 1})).shift(s_exp=3, m_exp=1)),
    "H": BivarPoly({(0, 0): 1, (1, 2): -1, (2 * _N + 1, 2): 1, (2 * _N + 2, 0): -1}),
    "eta1": (BivarPoly({(0, 1): 1, (2 * _N + 1, 1): -1}),
             BivarPoly({(2 * _N, 0): 1, (2 * _N, 2): 1})),
    "eta2": (BivarPoly({(1, 1): -1, (2 * _N + 1, 1): 1}),
             BivarPoly({(2 * _N, 0): -1, (2 * _N + 1, 0): -1})),
    "r1": (BivarPoly({(2 * _N + 3, 3): 1, (1, 3): -1, (2 * _N + 2, 1): -1, (2, 1): 1}),
           BivarPoly({(0, 4): 1, (0, 0): -1}) * _sp({2 * _N + 2: 1, 2 * _N + 1: 1}),
           BivarPoly({(4 * _N + 1, 3): 1, (2 * _N + 1, 3): -1,
                      (4 * _N + 2, 1): -1, (2 * _N, 1): 1})),
}


def _at(form, n):
    """The form at n: U = s^n, adding the monomials that coincide there."""
    terms = {}
    for (e, b), v in form.terms.items():
        k = (e + _N // 2) // _N
        key = (e + k * (n - _N), b)
        terms[key] = terms.get(key, 0) + v
    return BivarPoly(terms)


@lru_cache(maxsize=None)
def r0_polynomial(n):
    """The defining polynomial whose roots s parameterize the representations."""
    check_n(n)
    return _at(FORMS["r0"], n)


@lru_cache(maxsize=None)
def alpha_polynomial(n):
    return _at(FORMS["alpha"], n)


@lru_cache(maxsize=None)
def beta_polynomial(n):
    return _at(FORMS["beta"], n)


@lru_cache(maxsize=None)
def h_polynomial(n):
    return _at(FORMS["H"], n)


@lru_cache(maxsize=None)
def eta1_polynomial(n):
    a_fac, b_fac = (_at(f, n) for f in FORMS["eta1"])
    return a_fac * alpha_polynomial(n) + b_fac * beta_polynomial(n)


@lru_cache(maxsize=None)
def eta2_polynomial(n):
    a_fac, b_fac = (_at(f, n) for f in FORMS["eta2"])
    return a_fac * alpha_polynomial(n) + b_fac * beta_polynomial(n)


@lru_cache(maxsize=None)
def r1_polynomial(n):
    """The combination whose vanishing modulo r0 certifies the representation."""
    alpha, beta = alpha_polynomial(n), beta_polynomial(n)
    t_aa, t_ab, t_bb = (_at(f, n) for f in FORMS["r1"])
    return -(alpha * alpha * t_aa) + alpha * beta * t_ab + beta * beta * t_bb


@lru_cache(maxsize=None)
def _cofactors(n):
    """The cofactors at n (``_at``) of alpha and beta in eta_1, eta_2 and
    eta_1 + eta_2, whose cofactors are the exact sums of the other two's,
    and of alpha^2, alpha beta and beta^2 in r1, r1's sign on the first."""
    eta1, eta2 = ([_at(f, n) for f in FORMS[name]] for name in ("eta1", "eta2"))
    t_aa, t_ab, t_bb = (_at(f, n) for f in FORMS["r1"])
    return {"eta1": eta1, "eta2": eta2, "eta_sum": [a + b for a, b in zip(eta1, eta2)],
            "r1": [-t_aa, t_ab, t_bb]}


# ---------------------------------------------------------------------------
# parameter points


@dataclass(frozen=True)
class PretzelContext:
    """One fully instantiated parameter point: n, the meridian eigenvalue m,
    a root s of r0(m, .), and every derived quantity of the closed forms.
    ``exact`` holds alpha and beta as ``eval`` computes them before their
    rounding (``Gauss`` at prec + 64 bits); eta_1, eta_2, eta_1 + eta_2
    and r1 are the paper's forms in them, linear and quadratic, their
    cofactors evaluated term by term on ``Gauss`` from one table of s- and
    m-powers, each computed on first use and rounded once, at ``prec``; so
    are the holonomy matrices computed on first use.  ``residual`` and
    ``radius`` are the solver's (0 at the exact roots 0, 1 and -1); a
    context from ``build_context`` alone holds the residual it was given."""

    n: int
    m: mpc
    s: mpc
    alpha: mpc
    beta: mpc
    H: mpc
    S: mpc
    prec: int
    flags: frozenset
    exact: tuple = field(compare=False, repr=False)
    residual: object = None
    radius: object = None

    @property
    def nondegenerate(self):
        return not self.flags

    @cached_property
    def _cofactor_values(self):
        """{name: cofactor values} of ``_cofactors`` at (m, s): each the
        exact sum of its terms v s^a m^b over one power of two, then ``fit``,
        the monomials from one table of s- and m-powers."""
        bits = self.prec + GUARD_BITS
        one, m, s = Gauss.read(bits, self.m, self.s)
        cofactors = _cofactors(self.n)
        keys = {key for polys in cofactors.values() for poly in polys for key in poly.terms}
        s_pow, m_pow = ({e: base ** e if e else one for e in exps} for base, exps in (
            (s, {a for a, _ in keys}), (m, {b for _, b in keys})))
        monomials = {(a, b): s_pow[a] * m_pow[b] for a, b in keys}

        def value(poly):
            parts, shift = aligned([monomials[key] for key in poly.terms])
            coeffs = list(poly.terms.values())
            return Gauss((sum(map(int.__mul__, coeffs, parts[0::2])),
                          sum(map(int.__mul__, coeffs, parts[1::2]))), shift, bits)
        return {name: [value(poly) for poly in polys] for name, polys in cofactors.items()}

    def _linear(self, name):
        (a_fac, b_fac), (alpha, beta) = self._cofactor_values[name], self.exact
        return (a_fac * alpha + b_fac * beta).mpc(self.prec)

    eta1 = cached_property(lambda self: self._linear("eta1"))
    eta2 = cached_property(lambda self: self._linear("eta2"))
    eta_sum = cached_property(lambda self: self._linear("eta_sum"))

    @cached_property
    def r1(self):
        (t_aa, t_ab, t_bb), (alpha, beta) = self._cofactor_values["r1"], self.exact
        return (alpha * alpha * t_aa + alpha * beta * t_ab + beta * beta * t_bb).mpc(self.prec)

    @cached_property
    def holonomy_matrices(self):
        """The printed images rho(a), rho(b), rho(x) and the product rho(x)
        rho(b), each the Gaussian-integer matrix (parts, shift) of its
        entries a11, a12, a21, a22 (``aligned``), on ``Gauss`` from one
        exact read of m, s, alpha, beta and S."""
        if not self.nondegenerate:
            raise DegenerateContext(
                f"cannot build a representation at flags {sorted(self.flags)}")
        one, m, s, alpha, beta, S = Gauss.read(self.prec + GUARD_BITS, self.m, self.s,
                                               self.alpha, self.beta, self.S)
        zero, sp1, sa = one - one, s ** (2 * self.n + 1) + one, s * alpha
        u, v, c = sa - m * beta, m * sa - beta, one / sa
        A = (m, -(m * m - s) * sp1 / (m * (s + one)), zero, one / m)
        B = (beta * c, -u * v / (m * beta) * c, beta * c, (m * v + sa) / m * c)
        X = (S, zero, (S - one / S) / sp1, one / S)
        XB = (S * B[0], S * B[1], X[2] * B[0] + X[3] * B[2], X[2] * B[1] + X[3] * B[3])
        return tuple(aligned(M) for M in (A, B, X, XB))


def _small(x, scale):
    """|x| < ``DEGENERACY_TOL`` |scale| for ``Gauss`` values, on their exact
    squared magnitudes."""
    k = 2 * (scale.exp + DEGENERACY_TOL.exp - x.exp)
    return (x.re ** 2 + x.im ** 2 << max(0, -k)
            < (scale.re ** 2 + scale.im ** 2) * DEGENERACY_TOL.man ** 2 << max(0, k))


def _flags(n, m, s, values):
    """Near-zero flags for every quantity the representation formulas
    divide by, given the ``(value, scale)`` pairs of alpha, beta and H at
    (m, s), each measured relative to its natural scale (s -+ 1 to max(1,
    |s|), s^(2n+1) + 1 to 1 + |s^(2n+1)|, an isqrt floor), all read exactly
    as ``Gauss`` (``_small``)."""
    bits = mp.prec + GUARD_BITS
    one, m, s, *vals = Gauss.read(bits, m, s, *(mpc(x) for pair in values for x in pair))
    y = s ** (2 * n + 1)
    y_abs = Gauss((isqrt(y.re ** 2 + y.im ** 2 << 2 * bits), 0), y.exp - bits, bits)
    names = ("alpha_zero", "beta_zero", "H_zero")
    tests = [("m_zero", m, one), ("s_zero", s, one), ("s_one", s - one, one),
             ("s_one", s - one, s), ("s_minus_one", s + one, one), ("s_minus_one", s + one, s),
             ("s_power_minus_one", y + one, one + y_abs), *zip(names, vals[0::2], vals[1::2])]
    return frozenset({name for name, x, scale in tests if _small(x, scale)}
                     | {name for name, (_, scale) in zip(names, values) if scale == 0})


def build_context(n, m, s, prec=DEFAULT_PREC, strict=False, residual=None):
    """The context at (n, m, s), with m and s rounded to ``prec`` bits and
    every derived quantity computed at ``prec``: alpha, beta and H by
    ``eval``, alpha and beta kept also before their rounding (``exact``),
    from which the context takes eta_1, eta_2, their sum and r1."""
    check_n(n)
    check_prec(prec)
    with mp.workprec(prec):
        m, s = mpc(m), mpc(s)
        values = [poly._evaluate(m, s) for poly in (
            alpha_polynomial(n), beta_polynomial(n), h_polynomial(n))]
        flags = _flags(n, m, s, [(value, scale) for value, scale, _ in values])
        if strict and flags:
            raise DegenerateContext(f"degenerate parameter point: {sorted(flags)}")
        (alpha, _, exact_alpha), (beta, _, exact_beta), (H, _, _) = values
        return PretzelContext(
            n=n, m=m, s=s, alpha=alpha, beta=beta, H=H, S=s ** n,
            prec=prec,
            flags=flags,
            exact=(exact_alpha, exact_beta),
            residual=residual,
        )


# ---------------------------------------------------------------------------
# root solving


@lru_cache(maxsize=None)
def r0_cofactor(n):
    """(val, q) with r0 = s^val (s - 1)^2 (s + 1)^3 q exactly, in integer
    arithmetic: one long division of r0 by that monic factor, s^val (s^5 +
    s^4 - 2 s^3 - 2 s^2 + s + 1), whose remainder must be 0.  These factors
    are present for every n; what remains has simple roots at a generic m,
    so it is the polynomial the solver works on.
    """
    r0 = r0_polynomial(n)
    val = r0.s_valuation()
    q, rem = r0.divmod_s(_sp({5: 1, 4: 1, 3: -2, 2: -2, 1: 1, 0: 1}).shift(s_exp=val))
    if rem.terms:
        raise ArithmeticError(
            f"r0 at n={n} is not divisible by (s - 1)^2 (s + 1)^3")
    return val, q


def _horner(row, zr, zi, za, bits):
    """``(re, im, mag)``: Horner's rule on the Gaussian-integer row (entries
    (re, im, mag) leading first) at z = (zr + i zi) 2^-bits, and on its
    magnitude column at za 2^-bits, in the row's units.  Each step's shift
    is a floor, the one truncation: under one unit per part per step."""
    re = im = mag = 0
    for cr, ci, ca in row:
        re, im = ((re * zr - im * zi) >> bits) + cr, ((re * zi + im * zr) >> bits) + ci
        mag = (mag * za >> bits) + ca
    return re, im, mag


def _newton(rows, z, prec):
    """Polish an approximate simple root at ``prec`` bits on ``_horner``'s
    fixed point 2^-bits, bits = prec + ``GUARD_BITS``.  z is read once
    (``read_fixed``); each step takes w = z, or w = 1/z on the reversed rows
    when |z| > 1 (``reciprocal``), and p/p' = P/D, or P/(wD), the exact
    Gaussian quotient rounded once (``nearest``), with P, D ``_horner`` on
    ``rows[inverted]`` at w (p(1/w) = w^-d P, p'(1/w) = w^(1-d) D).  It stops
    after a step of at most 2^-(3 prec/4) max(1, |z|), compared on exact
    squared magnitudes, or after bit_length(prec) + 4 steps: quadratic
    convergence takes a 64-bit seed to ``prec`` bits in about
    log2(prec / 64).  The root is rounded once, to nearest at ``prec``."""
    bits = prec + GUARD_BITS
    one2, tol2 = 1 << 2 * bits, 2 * (3 * prec // 4)   # |z|^2 = 1; |step|^2 2^tol2
    zr, zi, inverted = read_fixed(z, bits)
    if inverted:
        zr, zi = reciprocal(zr, zi, -bits, bits)
    for _ in range(prec.bit_length() + 4):
        inverted = zr * zr + zi * zi > one2
        wr, wi = reciprocal(zr, zi, -bits, bits) if inverted else (zr, zi)
        row, drow = rows[inverted]
        pr, pi, _ = _horner(row, wr, wi, 0, bits)
        dr, di, _ = _horner(drow, wr, wi, 0, bits)
        if inverted:
            pr, pi, dr, di = pr << bits, pi << bits, wr * dr - wi * di, wr * di + wi * dr
        den = dr * dr + di * di
        if not den:
            break
        # the step on the fixed point: P conj(D) 2^bits / |D|^2
        sr = nearest((pr * dr + pi * di) << bits, den)
        si = nearest((pi * dr - pr * di) << bits, den)
        zr, zi = zr - sr, zi - si
        if (sr * sr + si * si) << tol2 <= max(one2, zr * zr + zi * zi):
            break
    return mp.make_mpc((from_man_exp(zr, -bits, prec, round_nearest),
                        from_man_exp(zi, -bits, prec, round_nearest)))


def _inclusion_radius(rows, z, prec):
    """A radius r such that the disc about z holds a root of p, rounded up
    at ``prec``: d |p(w)| / |p'(w)| at the read w of z (Henrici, Applied and
    Computational Complex Analysis I), with |P| widened and |D| narrowed by
    the bound on their error, plus |z - w|.  In units of the row:
    the row's ``fit`` moves each coefficient by at most sqrt(2)/2 and each
    Horner floor by under sqrt(2), so |P| is off by at most (d + 1) sqrt(2)/2
    + d sqrt(2) < 3 (d + 1), and |D|, whose row holds j c_j, by at most
    d (d + 1) sqrt(2)/4 + (d - 1) sqrt(2) < (d + 1)(d + 4)/2 (both for |w| <=
    1, on the reversed rows |w| < 1 + 2^(1-bits), which the slack covers).
    Each part of w is within half a unit of 2^-bits of its exact value, so
    |z - w| <= 2^-bits, and on the reversed rows |z - 1/w| <= 2^bits / (a (a
    - 1)) with a = floor |w 2^bits|.  isqrt floors |P| (one unit is added)
    and |D|, and the one division rounds up."""
    bits = prec + GUARD_BITS
    d = len(rows[0][0]) - 1
    wr, wi, inverted = read_fixed(z, bits)
    row, drow = rows[inverted]
    pr, pi, _ = _horner(row, wr, wi, 0, bits)
    dr, di, _ = _horner(drow, wr, wi, 0, bits)
    num = d * (isqrt(pr * pr + pi * pi) + 1 + 3 * (d + 1))
    den = isqrt(dr * dr + di * di) - (d + 1) * (d + 4) // 2
    if inverted:   # |p(1/w)| / |p'(1/w)| = |P| / (|w| |D|), plus |z - 1/w|
        a = isqrt(wr * wr + wi * wi)
        num, den = (num * (a - 1) + den) << bits, den * a * (a - 1)
    else:          # |P| / |D|, plus |z - w|
        num, den = (num << bits) + den, den << bits
    if den <= 0:   # the sign of den survives both branches
        return mpf("inf")
    return mp.make_mpf(mpf_div(from_int(num), from_int(den), prec, round_ceiling))


def _disjoint(centres, radii):
    """Whether the discs about the ``mpc`` centres with the ``mpf`` radii
    are pairwise disjoint: |z_i - z_j|^2 > (r_i + r_j)^2, on exact integers,
    every value read onto one power of two (``gaussian``).  Touching discs
    are not disjoint, nor is a disc of infinite radius."""
    if any(mpmath.isinf(r) for r in radii):
        return False
    parts, _ = gaussian([*centres, *(mp.make_mpc((r._mpf_, fzero)) for r in radii)])
    d = len(centres)
    discs = list(zip(parts[0:2 * d:2], parts[1:2 * d:2], parts[2 * d::2]))
    return all((xr - yr) ** 2 + (xi - yi) ** 2 > (xa + ya) ** 2
               for (xr, xi, xa), (yr, yi, ya) in combinations(discs, 2))


def certified_roots(poly, m, prec):
    """The roots of s -> poly(m, s) other than 0, which must be simple, each
    with an inclusion radius, at ``prec`` bits.

    The coefficient row at m (m read exactly) is built once, exact and
    ``fit`` to prec + ``GUARD_BITS`` bits as ``BivarPoly.eval``'s rows are
    (``_fixed_row``).  Seeds come from 64-bit simultaneous iteration
    (``mp.polyroots``, with max(50, 2d) steps) on its parts rounded to
    nearest at ``prec``.  Newton polishes them at ``prec``, and the radii
    certify them, on that row and on its derivative row, through eval's
    fixed-point Horner: on 1/s over the reversed rows when |s| > 1, so the
    integers stay near prec + 64 bits.  A disc then holds a root of poly(m,
    .) itself.  The d discs must be pairwise disjoint, compared exactly
    (``_disjoint``): each then holds exactly one root.  If they are not,
    and ``prec`` is above 64, the seeds are computed again at ``prec``; if
    that fails too, ``NonConvergence`` names the discs, or the seeds if
    none converged.
    """
    row, shift, _ = poly._fixed_row(m, prec + GUARD_BITS)
    coeffs = [mp.make_mpc((from_man_exp(re, shift, prec, round_nearest),
                           from_man_exp(im, shift, prec, round_nearest)))
              for re, im, _ in row]
    d = len(row) - 1
    drow = [(j * cr, j * ci, j * ca) for j, (cr, ci, ca) in zip(range(d, 0, -1), row)]
    rows = ((row, drow), (row[::-1], drow[::-1]))
    reason = f"the seeds of the {d} roots did not converge"
    for seed_prec in dict.fromkeys((64, prec)):
        try:
            with mp.workprec(seed_prec):
                seeds = mp.polyroots(coeffs, maxsteps=max(50, 2 * d))
        except mp.NoConvergence:
            continue
        reason = f"could not isolate the {d} roots in disjoint discs"
        with mp.workprec(prec):
            roots = [_newton(rows, mpc(z), prec) for z in seeds]
            radii = [_inclusion_radius(rows, z, prec) for z in roots]
            if _disjoint(roots, radii):
                return roots, radii
    raise NonConvergence(f"{reason} at {prec} bits")


def solve_s_roots(n, m, prec=DEFAULT_PREC):
    """The ``build_context`` context of every complex root of s -> r0(m, .),
    with its relative residual and inclusion radius.

    The roots 0 (of multiplicity the s-valuation), 1 (double) and -1
    (triple) are exact and come from the integer factorisation of r0
    (``r0_cofactor``); they are always flagged, never dropped.  The rest
    are the simple roots of the cofactor q(m, .), found by
    ``certified_roots`` at ``prec`` bits and checked against r0 by their
    relative residual.  Contexts are sorted by Re s, then Im s.
    """
    check_prec(prec)
    with mp.workprec(prec):
        m = mpc(m)
        if m == 0:
            raise ValueError("the meridian eigenvalue m must be nonzero")
        r0 = r0_polynomial(n)
        val, q = r0_cofactor(n)
        records = []
        for root, mult in ((0, val), (1, 2), (-1, 3)):
            ctx = build_context(n, m, root, prec, residual=mpf(0))
            records += [replace(ctx, radius=mpf(0))] * mult
        roots, radii = certified_roots(q, m, prec)
        bound = half_prec_tol(prec)
        for s, radius in zip(roots, radii):
            value, scale = r0.eval(m, s)
            res = abs(value) / scale
            if not res <= bound:
                raise NonConvergence(
                    f"root {s} has relative residual {res} above {bound}")
            records.append(replace(build_context(n, m, s, prec, residual=res),
                                   radius=radius))
    # Re s is compared to 2^(-prec/2) absolute, so real parts that agree up
    # to rounding noise (conjugate pairs at real m, the m-independent roots
    # of s^(2n+1) = -1) are ordered by Im s, not by the noise
    records.sort(key=lambda rec: (mpmath.nint(mpmath.ldexp(rec.s.real, prec // 2)),
                                  rec.s.imag))
    return records


def select_root(records, root_index=None):
    """Default policy: the nondegenerate root with the largest |Im s|.  This
    is a convenience, not a geometric claim; every nondegenerate root
    satisfies the implemented identities."""
    if root_index is not None:
        if not 0 <= root_index < len(records):
            raise IndexError(f"root index {root_index} out of range")
        rec = records[root_index]
        if rec.flags:
            raise DegenerateContext(
                f"root {root_index} is degenerate: {sorted(rec.flags)}")
        return root_index
    best = None
    for i, rec in enumerate(records):
        if rec.flags:
            continue
        if best is None or abs(rec.s.imag) > abs(records[best].s.imag):
            best = i
    if best is None:
        raise DegenerateContext("no nondegenerate root found")
    return best


# ---------------------------------------------------------------------------
# presentations


@lru_cache(maxsize=None)
def presentation_two_gen(n):
    """<a, c | (acac^-1)^(n-1) = c (acac^-1)^-1 (ac)^-1 c>."""
    check_n(n)
    a, c = gen(0), gen(1)
    w = word_multiply(a, c, a, word_invert(c))
    lhs = word_power(w, n - 1)
    rhs = word_multiply(c, word_invert(w), word_invert(word_multiply(a, c)), c)
    return Presentation(("a", "c"), (Relator(lhs, rhs),), (1, 2 * n + 1))


@lru_cache(maxsize=None)
def presentation_three_gen(n):
    """<a, b, x | w^-1 x = x b w^-1 (a x b)^-1 x b,  x = w^n>  with
    w = a x b a (x b)^-1, from the surgery description."""
    check_n(n)
    a, b, x = gen(0), gen(1), gen(2)
    xb = word_multiply(x, b)
    w = word_multiply(a, x, b, a, word_invert(xb))
    rel1 = Relator(
        word_multiply(word_invert(w), x),
        word_multiply(xb, word_invert(w), word_invert(word_multiply(a, xb)), xb),
    )
    rel2 = Relator(x, word_power(w, n))
    return Presentation(("a", "b", "x"), (rel1, rel2), (1, 1, 2 * n))


# ---------------------------------------------------------------------------
# the representation


def build_holonomy_rep(ctx, presentation):
    """The representation of the ``"two"`` or ``"three"`` generator
    presentation of K_n; for the 2-generator one the image of c is
    rho(x) rho(b) (``PretzelContext.holonomy_matrices``)."""
    A, B, X, XB = ctx.holonomy_matrices
    if presentation == "two":
        return Representation(presentation_two_gen(ctx.n), (A, XB), prec=ctx.prec)
    if presentation == "three":
        return Representation(presentation_three_gen(ctx.n), (A, B, X), prec=ctx.prec)
    raise ValueError(f"unknown presentation {presentation!r}")
