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
one m (the solver's residuals, the context values, r1) shares one
specialisation.  The rows are the exact values sum_b v m^b (m read exactly
as a Gaussian integer) and their magnitudes, rounded once onto one power of
two with prec + 64 bits for the largest magnitude; Horner runs on Gaussian
integers with s, or 1/s on the reversed row when |s| > 1, to prec + 64
fractional bits.  The power of s (of 1/s if negative) that the row leaves
out is powered on Gaussian integers, a prec + 64-bit mantissa and an
exponent, which also give its modulus for the scale; only the result is
rounded to the working precision.
The solver takes the cofactor's row from ``s_rows``, each entry correctly
rounded from its exact value.
``solve_s_roots`` returns, per root, the ``PretzelContext`` that
``build_context`` makes there, so alpha, beta and H are evaluated once per
root and the flags are read from them.  Both take the working precision and
enter it; a context's eta_1, eta_2 and holonomy matrices (each computed
once, on first use) and the functions of a context run at ``ctx.prec``;
``BivarPoly.eval`` runs at its caller's ambient precision.  The two
presentations are built once per n.
``DEFAULT_PREC`` is the default of the entry points, which accept
precisions from ``MIN_PREC`` to ``MAX_PREC``.  The family index runs
from 1 to ``MAX_N``, the largest n whose roots the solver certified at
every m probed (at n = 17 it fails at m = 1.2+0.4i).
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import isqrt

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import DegenerateContext, NonConvergence
from .fox import Presentation, Relator, Representation, gen, word_invert, word_multiply, word_power
from .laurent import Mat2, gaussian, half_prec_tol

DEFAULT_PREC = 256
MIN_PREC = 64
MAX_PREC = 4096
MAX_N = 16
DEGENERACY_TOL = mpf("1e-10")
EVAL_GUARD_BITS = 64


def check_prec(prec):
    if not MIN_PREC <= prec <= MAX_PREC:
        raise ValueError(f"precision_bits must lie in [{MIN_PREC}, {MAX_PREC}], "
                         f"got {prec}")


def check_n(n):
    if not 1 <= n <= MAX_N:
        raise ValueError(f"the family is implemented for 1 <= n <= {MAX_N}, got {n}")


def _rounded_product(x, y, bits):
    """x y of Gaussian numbers ((re, im), exp), value (re + i im) 2^exp, as
    ``gaussian`` gives them: exact, then rounded to nearest on one power of
    two so that its larger part has at most ``bits`` bits."""
    ((a, b), e), ((c, d), f) = x, y
    re, im, exp = a * c - b * d, a * d + b * c, e + f
    k = max(abs(re), abs(im)).bit_length() - bits
    if k <= 0:
        return (re, im), exp
    half = 1 << (k - 1)
    return ((re + half) >> k, (im + half) >> k), exp + k


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

    def _exact_row(self, m, guard):
        """``(row, shift, valuation)`` at m: the polynomial in s is
        s^valuation times the row, listed leading first, whose entries are
        [re, im, mag] over 2^shift: re + i*im = sum_b v_ab m^b exactly, and
        mag = sum_b |v_ab| |m|^b with each |m|^b rounded down to ``guard``
        fractional bits."""
        (mr, mi), e = gaussian([m])
        norm = mr * mr + mi * mi
        ms = {b for _, b in self.terms}
        base = min((b * e for b in ms), default=0)
        powers, zr, zi = {}, 1, 0
        for b in range(max(ms, default=0) + 1):
            if b in ms:
                up = b * e - base
                powers[b] = (zr << (up + guard), zi << (up + guard),
                             isqrt(norm ** b << 2 * guard) << up)
            zr, zi = zr * mr - zi * mi, zr * mi + zi * mr
        lo, hi = self.s_valuation() or 0, self.s_degree() or 0
        row = [[0, 0, 0] for _ in range(hi - lo + 1)]
        for (a, b), v in self.terms.items():
            entry, (pr, pi, pa) = row[hi - a], powers[b]
            entry[0] += v * pr
            entry[1] += v * pi
            entry[2] += abs(v) * pa
        return row, base - guard, lo

    def s_rows(self, m):
        """``(coefficients, valuation)`` at m and the ambient precision: the
        polynomial in s is s^valuation times the coefficient row, listed
        leading first, each entry sum_b v_ab m^b correctly rounded from its
        exact value."""
        row, shift, val = self._exact_row(mpc(m), 0)
        return [mp.make_mpc((from_man_exp(re, shift, mp.prec, round_nearest),
                             from_man_exp(im, shift, mp.prec, round_nearest)))
                for re, im, _ in row], val

    def eval(self, m, s):
        """``(value, scale)`` at (m, s) and the ambient precision: rows per
        (m, precision), fixed-point Horner per root, times the power of s
        the row leaves out (see the module docstring).  The scale is the sum
        of the term magnitudes at |m|, |s|, the natural scale against which
        residuals and near-zero tests are measured.  The rows of the last
        (m, precision) are kept, so every root at one m shares them."""
        m, s, prec = mpc(m), mpc(s), mp.prec
        bits = prec + EVAL_GUARD_BITS
        if self._rows is None or self._rows[0] != (m, prec):
            row, shift, val = self._exact_row(m, bits)
            k = max(mag for *_, mag in row).bit_length() - bits
            if k > 0:
                half = 1 << (k - 1)
                row = [[(x + half) >> k for x in entry] for entry in row]
                shift += k
            self._rows = (m, prec), (row, shift, val)
        row, shift, power = self._rows[1]
        zr, zi = to_fixed(s.real._mpf_, bits), to_fixed(s.imag._mpf_, bits)
        if zr * zr + zi * zi > 1 << 2 * bits:
            with mp.workprec(bits):
                z = 1 / s
            zr, zi = to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)
            row, power = row[::-1], power + len(row) - 1
        za = isqrt(zr * zr + zi * zi)
        re = im = mag = 0
        for cr, ci, ca in row:
            re, im = ((re * zr - im * zi) >> bits) + cr, ((re * zi + im * zr) >> bits) + ci
            mag = (mag * za >> bits) + ca
        if power < 0:
            with mp.workprec(bits):
                s, power = 1 / s, -power
        p, base = ((1, 0), 0), gaussian([s])
        for bit in bin(power)[2:]:
            p = _rounded_product(p, p, bits)
            if bit == "1":
                p = _rounded_product(p, base, bits)
        (pr, pi), exp = p
        pa = isqrt((pr * pr + pi * pi) << 2 * bits)   # |s^power| 2^(bits - exp)
        exp += shift
        return (mp.make_mpc((from_man_exp(re * pr - im * pi, exp, prec, round_nearest),
                             from_man_exp(re * pi + im * pr, exp, prec, round_nearest))),
                mp.make_mpf(from_man_exp(mag * pa, exp - bits, prec, round_nearest)))

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


# ---------------------------------------------------------------------------
# parameter points


@dataclass(frozen=True)
class PretzelContext:
    """One fully instantiated parameter point: n, the meridian eigenvalue m,
    a root s of r0(m, .), and every derived quantity of the closed forms,
    eta_1, eta_2 and the holonomy matrices computed at ``prec`` on first
    use.  ``residual`` and ``radius`` are the solver's (0 at the exact roots
    0, 1 and -1); a context from ``build_context`` alone holds the residual
    it was given."""

    n: int
    m: mpc
    s: mpc
    alpha: mpc
    beta: mpc
    H: mpc
    S: mpc
    prec: int
    flags: frozenset
    residual: object = None
    radius: object = None

    @property
    def nondegenerate(self):
        return not self.flags

    @cached_property
    def eta1(self):
        with mp.workprec(self.prec):
            return eta1_polynomial(self.n).eval(self.m, self.s)[0]

    @cached_property
    def eta2(self):
        with mp.workprec(self.prec):
            return eta2_polynomial(self.n).eval(self.m, self.s)[0]

    @cached_property
    def holonomy_matrices(self):
        """The printed images rho(a), rho(b), rho(x)."""
        if not self.nondegenerate:
            raise DegenerateContext(
                f"cannot build a representation at flags {sorted(self.flags)}")
        n, m, s = self.n, self.m, self.s
        alpha, beta = self.alpha, self.beta
        with mp.workprec(self.prec):
            sp1 = s ** (2 * n + 1) + 1
            A = Mat2(m, -(m * m - s) * sp1 / (m * (s + 1)), mpc(0), 1 / m)
            u = s * alpha - m * beta
            v = m * s * alpha - beta
            B = Mat2(beta, -u * v / (m * beta), beta, (m * v + s * alpha) / m).scaled(
                1 / (s * alpha))
            X = Mat2(self.S, mpc(0), (self.S - 1 / self.S) / sp1, 1 / self.S)
        return A, B, X


def _flags(n, m, s, values):
    """Near-zero flags for every quantity the representation formulas
    divide by, given the ``(value, scale)`` pairs of alpha, beta and H at
    (m, s), each measured relative to its natural scale."""
    flags = set()
    am, as_ = abs(m), abs(s)
    if am < DEGENERACY_TOL:
        flags.add("m_zero")
    if as_ < DEGENERACY_TOL:
        flags.add("s_zero")
    if abs(s - 1) < DEGENERACY_TOL * max(mpf(1), as_):
        flags.add("s_one")
    if abs(s + 1) < DEGENERACY_TOL * max(mpf(1), as_):
        flags.add("s_minus_one")
    if abs(s ** (2 * n + 1) + 1) < DEGENERACY_TOL * (1 + as_ ** (2 * n + 1)):
        flags.add("s_power_minus_one")
    for name, (value, scale) in zip(("alpha_zero", "beta_zero", "H_zero"), values):
        if scale == 0 or abs(value) < DEGENERACY_TOL * scale:
            flags.add(name)
    return frozenset(flags)


def build_context(n, m, s, prec=DEFAULT_PREC, strict=False, residual=None):
    """The context at (n, m, s), with m and s rounded to ``prec`` bits and
    every derived quantity computed at ``prec``."""
    check_n(n)
    check_prec(prec)
    with mp.workprec(prec):
        m, s = mpc(m), mpc(s)
        values = [poly.eval(m, s) for poly in (
            alpha_polynomial(n), beta_polynomial(n), h_polynomial(n))]
        flags = _flags(n, m, s, values)
        if strict and flags:
            raise DegenerateContext(f"degenerate parameter point: {sorted(flags)}")
        (alpha, _), (beta, _), (H, _) = values
        return PretzelContext(
            n=n, m=m, s=s, alpha=alpha, beta=beta, H=H,
            S=s ** n,
            prec=prec,
            flags=flags,
            residual=residual,
        )


def eval_r1(ctx):
    """``(value, scale)`` of r1 at the context's (m, s)."""
    with mp.workprec(ctx.prec):
        return r1_polynomial(ctx.n).eval(ctx.m, ctx.s)


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


def _newton(coeffs, z, prec):
    """Polish an approximate simple root at the ambient precision ``prec``;
    quadratic convergence takes a 64-bit seed to ``prec`` bits in about
    log2(prec / 64) steps."""
    tol = mpf(2) ** (-(3 * prec // 4))
    for _ in range(prec.bit_length() + 4):
        p, dp = mp.polyval(coeffs, z, derivative=True)
        if not dp:
            break
        step = p / dp
        z -= step
        if not abs(step) > tol * max(1, abs(z)):
            break
    return z


def _inclusion_radius(coeffs, mags, z, prec):
    """d |p(z)| / |p'(z)|, with both values widened by the rounding error of
    their Horner evaluation, whose bound takes the magnitudes ``mags`` of
    the coefficients: a disc of this radius about z holds a root of p
    (Henrici, Applied and Computational Complex Analysis I)."""
    d = len(coeffs) - 1
    p, dp = mp.polyval(coeffs, z, derivative=True)
    mag, dmag = mp.polyval(mags, abs(z), derivative=True)
    err = 8 * (d + 1) * mpf(2) ** -prec
    den = abs(dp) - err * dmag
    return d * (abs(p) + err * mag) / den if den > 0 else mpf("inf")


def _disjoint(roots, radii):
    return all(abs(roots[i] - roots[j]) > radii[i] + radii[j]
               for i in range(len(roots)) for j in range(i))


def certified_roots(coeffs, prec):
    """All roots of a polynomial with simple roots (coefficients leading
    first), each with an inclusion radius, at ``prec`` bits.

    Seeds come from 64-bit simultaneous iteration (``mp.polyroots``) and
    are Newton-polished at ``prec``.  The d discs must be pairwise disjoint:
    each then holds exactly one root.  If they are not, and ``prec`` is
    above 64, the seeds are computed again at ``prec``; if that fails too,
    ``NonConvergence`` is raised.
    """
    with mp.workprec(prec):
        mags = [abs(c) for c in coeffs]
    for seed_prec in dict.fromkeys((64, prec)):
        try:
            with mp.workprec(seed_prec):
                seeds = mp.polyroots(coeffs)
        except mp.NoConvergence:
            continue
        with mp.workprec(prec):
            roots = [_newton(coeffs, z, prec) for z in seeds]
            radii = [_inclusion_radius(coeffs, mags, z, prec) for z in roots]
            if _disjoint(roots, radii):
                return roots, radii
    raise NonConvergence(
        f"could not isolate the {len(coeffs) - 1} roots in disjoint discs "
        f"at {prec} bits")


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
        # q(m, 0) != 0, so its coefficient row is all of q
        roots, radii = certified_roots(q.s_rows(m)[0], prec)
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
    rho(x) rho(b)."""
    A, B, X = ctx.holonomy_matrices
    if presentation == "two":
        with mp.workprec(ctx.prec):
            XB = X * B
        return Representation(presentation_two_gen(ctx.n), (A, XB), prec=ctx.prec)
    if presentation == "three":
        return Representation(presentation_three_gen(ctx.n), (A, B, X), prec=ctx.prec)
    raise ValueError(f"unknown presentation {presentation!r}")
