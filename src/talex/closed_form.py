"""Direct evaluators for the closed-form results.

Three independent routes produce the same normalized polynomial:

* ``delta_theorem``   -- the final three-case coefficient formula,
* ``delta_prop32``    -- the intermediate grouped form, expanded through the
  geometric-sum identities so the removable singularities at t^2 = s and
  s t^2 = 1 never appear,
* the generic Fox pipeline in :mod:`talex.fox`.

``zeta_vanishing`` gives the two obstruction quantities of the final
comparison.  The printed formulas the tests check these evaluators and the
Fox pipeline against (the closed forms of the denominator and of the zeta_2
cofactor, the four-term derivative expansion) are transcribed in
``tests/oracles.py``.

Every evaluator runs on Gaussian integers by the Fox walk's floating rule:
the context values are read once, exactly (eta_1 + eta_2 as ``eta_sum``,
the context's own form with the summed cofactors, since the two cancel),
and each sum, product and quotient is exact, then ``fit`` to ctx.prec +
``GUARD_BITS`` bits on its own power of two (``talex.laurent.Gauss``), so
a tiny m or beta keeps its relative precision.  Only the results are rounded at ``ctx.prec``: a
polynomial's coefficients from exact terms over one power of two
(``rounded``), and lambda_i and zeta_i each to an ``mpc``.  Every rounding
is odd, so each polynomial at -m is t -> -t of the one at m, bit for bit.
"""

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DegenerateContext
from .laurent import (GUARD_BITS, DeltaResult, Gauss, convolve_into, gaussian,
                      half_prec_tol, normalize_delta, rounded)

MONIC_TOL = mpf("1e-20")


def _powers(one, s, lo, hi):
    """{j: s^j} for lo <= j <= hi (lo <= 0 <= hi), by repeated products of s
    and of 1/s."""
    powers, inverse = {0: one}, one / s
    for j in range(1, hi + 1):
        powers[j] = powers[j - 1] * s
    for j in range(-1, lo - 1, -1):
        powers[j] = powers[j + 1] * inverse
    return powers


def _exact(*terms):
    """Dicts {e: Gauss} as Gaussian-integer dicts {e: (re, im)} over one
    power of two: (dicts, shift), exactly."""
    base = min(g.exp for t in terms for g in t.values())
    return [{e: (g.re << g.exp - base, g.im << g.exp - base) for e, g in t.items()}
            for t in terms], base


def _require_nondegenerate(ctx):
    if not ctx.nondegenerate:
        raise DegenerateContext(f"degenerate context: {sorted(ctx.flags)}")


def lambda_coefficients(ctx):
    """The 2n coefficients lambda_0 .. lambda_(2n-1) of the final formula.

    Even indices below 2n-1 use the (H, beta, eta_sum) expression, odd
    ones the balanced s-power ratio, and the top index 2n-1 its own two-term
    expression.  s-powers are taken with integer exponents only, each once,
    and each lambda_i is rounded to an ``mpc`` at ``ctx.prec`` once.
    """
    _require_nondegenerate(ctx)
    n = ctx.n
    one, m, s, S, H, beta, eta1, eta = Gauss.read(
        ctx.prec + GUARD_BITS, ctx.m, ctx.s, ctx.S, ctx.H, ctx.beta, ctx.eta1, ctx.eta_sum)
    powers = _powers(one, s, -n, n)
    # balanced[k] = (s^k - s^-k)/(s - s^-1) as the branch-safe sum s^(k-1)
    # + s^(k-3) + ... + s^(1-k), defined at s = +-1 too
    balanced = [one - one, one]
    for k in range(2, n):
        balanced.append(balanced[k - 2] + powers[k - 1] + powers[1 - k])
    # (1 + m^2)(H s^k beta - s (s^k - s^-k) eta) / (H m beta)
    #   = (a - b) s^k + b s^-k
    a = (one + m * m) / m
    b = a * s * eta / (H * beta)
    c = a - b
    out = []
    for i in range(2 * n):
        if i == 2 * n - 1:
            lam = balanced[n - 1] - (s * s - one) * eta1 / (H * S * beta)
        elif i % 2 == 0:
            k = i // 2 + 1
            lam = c * powers[k] + b * powers[-k]
        else:
            lam = balanced[(i - 1) // 2]
        out.append(lam.mpc(ctx.prec))
    return out


def delta_theorem(ctx):
    """1 + sum_i lambda_i (t^(i+3) + t^(4n-i+3)) + t^(4n+6), palindromic by
    construction; no two terms share an exponent.  The coefficients are the
    ``lambda_coefficients``, read exactly: they are rounded at ``ctx.prec``."""
    n = ctx.n
    parts, shift = gaussian([mpc(1), *lambda_coefficients(ctx)])
    one, *lams = zip(parts[0::2], parts[1::2])
    terms = {0: one, 4 * n + 6: one}
    for i, lam in enumerate(lams):
        terms[i + 3] = terms[4 * n - i + 3] = lam
    return DeltaResult(rounded(terms, shift, ctx.prec), 1, 0, "theorem", mpf(0))


def delta_prop32(ctx):
    """The grouped intermediate form, evaluated as a genuine Laurent
    polynomial.

    The two quotient prefactors, times s/S, are expanded with
      (S - T^2)/(s - t^2) s/S     = sum_(i<n) s^-i t^2i,
      (1 - S T^2)/(1 - s t^2) s/S = sum_(i<n) s^(i+1-n) t^2i,
    the three grouped blocks contribute finitely many monomials each, their
    products with the sums are taken exactly, and the total is multiplied
    by t^6 before normalization.
    """
    _require_nondegenerate(ctx)
    n = ctx.n
    one, m, s, S, H, beta, eta1, eta = Gauss.read(
        ctx.prec + GUARD_BITS, ctx.m, ctx.s, ctx.S, ctx.H, ctx.beta, ctx.eta1, ctx.eta_sum)
    powers = _powers(one, s, 1 - n, 1)
    one_minus_s2 = one - s * s
    a = (one + m * m) / m
    k2 = a * eta / (H * beta)
    edge = (a - k2 * s) * S
    u, v = s / one_minus_s2, -S / one_minus_s2
    tail = one_minus_s2 * eta1 / (H * S * beta)
    sums, shift = _exact({2 * i: powers[-i] for i in range(n)},
                         {2 * i: powers[i + 1 - n] for i in range(n)}, {0: one})
    # the first two blocks have the n shifts of t^2 folded into exponents;
    # the third takes no sum (its sum is 1)
    blocks, block_shift = _exact(
        {-2: u, 2 * n - 2: v, 2 * n - 1: edge, -3: k2},
        {-3: edge, -2: v, 2 * n - 2: u, 2 * n - 1: k2},
        {-6: one, 4 * n: one, 2 * n - 4: tail, 2 * n - 2: tail})
    total = {}
    for geo, block in zip(sums, blocks):
        convolve_into(total, geo, block, 1)
    poly = rounded(total, shift + block_shift, ctx.prec).shifted(6)
    return normalize_delta(poly, "prop32", mpf(0))


def zeta_vanishing(ctx):
    """The two obstruction quantities from the final comparison.

    zeta_1 vanishes identically (an algebraic identity in H, eta_1, eta_2);
    zeta_2 factors through r0 and vanishes exactly at roots.
    """
    one, m, s, S, H, alpha, beta, eta1, eta2 = Gauss.read(
        ctx.prec + GUARD_BITS, ctx.m, ctx.s, ctx.S, ctx.H, ctx.alpha, ctx.beta, ctx.eta1,
        ctx.eta2)
    S2, m2, s2 = S * S, m * m, s * s
    zeta1 = m * (m2 + one) * s * (s + one) * (
        H * S2 * beta - s * (S2 - one) * eta1 - (s * S2 - one) * eta2)
    # H m^2 s (m alpha - m s^2 alpha + s beta + S2 beta) - (s^2 - 1)(m^2 eta1
    # + m^2 s^3 eta1 + s eta2 + m^2 s eta2), grouped
    zeta2 = (H * m2 * s * ((s + S2) * beta - (s2 - one) * m * alpha)
             - (s2 - one) * ((s2 * s + one) * m2 * eta1 + (m2 + one) * s * eta2))
    return zeta1.mpc(ctx.prec), zeta2.mpc(ctx.prec)


@dataclass(frozen=True)
class GenusReport:
    degree: int
    monic: bool
    genus: object
    expected_degree: int
    expected_genus: int
    fibered_consistent: bool


def genus_fiberedness_report(delta, n):
    """Degree, monicity and the inferred genus (degree+2)/4 of a normalized
    polynomial, checked against the expected degree 4n+6 and genus n+2.
    The end coefficients count as 1 within ``MONIC_TOL``, or within the
    coarser ``half_prec_tol`` of the polynomial's precision below 134 bits."""
    deg = delta.poly.max_exp or 0
    tol = max(MONIC_TOL, half_prec_tol(delta.poly.prec))
    with mp.workprec(delta.poly.prec):
        monic = (abs(delta.poly.coeff(0) - 1) <= tol
                 and abs(delta.poly.coeff(deg) - 1) <= tol)
    genus = (deg + 2) / 4 if (deg + 2) % 4 else (deg + 2) // 4
    expected_degree = 4 * n + 6
    expected_genus = n + 2
    fibered = monic and deg == expected_degree and genus == expected_genus
    return GenusReport(degree=deg, monic=monic, genus=genus,
                       expected_degree=expected_degree,
                       expected_genus=expected_genus,
                       fibered_consistent=fibered)
