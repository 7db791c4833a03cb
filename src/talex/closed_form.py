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

Every evaluator runs at the context's precision ``ctx.prec``.
"""

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DegenerateContext
from .laurent import DeltaResult, LaurentPoly, half_prec_tol, normalize_delta

MONIC_TOL = mpf("1e-20")


def _require_nondegenerate(ctx):
    if not ctx.nondegenerate:
        raise DegenerateContext(f"degenerate context: {sorted(ctx.flags)}")


def _balanced_geometric(powers, k):
    """(s^k - s^-k)/(s - s^-1) as the branch-safe sum s^(k-1) + s^(k-3) +
    ... + s^(1-k) of ``powers`` = {j: s^j}; defined at s = +-1 too."""
    total = mpc(0)
    for j in range(k):
        total = total + powers[k - 1 - 2 * j]
    return total


def lambda_coefficients(ctx):
    """The 2n coefficients lambda_0 .. lambda_(2n-1) of the final formula.

    Even indices below 2n-1 use the (H, beta, eta_1 + eta_2) expression, odd
    ones the balanced s-power ratio, and the top index 2n-1 its own two-term
    expression.  s-powers are taken with integer exponents only, each once.
    """
    _require_nondegenerate(ctx)
    n, m, s = ctx.n, ctx.m, ctx.s
    H, beta = ctx.H, ctx.beta
    out = []
    with mp.workprec(ctx.prec):
        powers = {j: s ** j for j in range(-n, n + 1)}
        eta_sum = ctx.eta1 + ctx.eta2
        one_m2, hmb = 1 + m * m, H * m * beta
        for i in range(2 * n):
            if i == 2 * n - 1:
                lam = (_balanced_geometric(powers, n - 1)
                       - (s * s - 1) * ctx.eta1 / (H * ctx.S * beta))
            elif i % 2 == 0:
                k = i // 2 + 1
                lam = (one_m2
                       * (H * powers[k] * beta - s * (powers[k] - powers[-k]) * eta_sum)
                       / hmb)
            else:
                lam = _balanced_geometric(powers, (i - 1) // 2)
            out.append(lam)
    return out


def delta_theorem(ctx):
    """1 + sum_i lambda_i (t^(i+3) + t^(4n-i+3)) + t^(4n+6), palindromic by
    construction."""
    lams = lambda_coefficients(ctx)
    n, prec = ctx.n, ctx.prec
    terms = {0: 1, 4 * n + 6: 1}
    with mp.workprec(prec):
        for i, lam in enumerate(lams):
            for e in (i + 3, 4 * n - i + 3):
                terms[e] = terms[e] + lam if e in terms else lam
    poly = LaurentPoly(terms, prec)
    return DeltaResult(poly, 1, 0, "theorem", mpf(0))


def delta_prop32(ctx):
    """The grouped intermediate form, evaluated as a genuine Laurent
    polynomial.

    The two quotient prefactors are expanded with
      (S - T^2)/(s - t^2)   = (S/s) sum_i (t^2/s)^i,
      (1 - S T^2)/(1 - s t^2) = sum_i (s t^2)^i,
    the three grouped blocks contribute finitely many monomials each, and
    the total is multiplied by t^6 before normalization.
    """
    _require_nondegenerate(ctx)
    n, m, s, S = ctx.n, ctx.m, ctx.s, ctx.S
    prec = ctx.prec
    H, beta = ctx.H, ctx.beta
    with mp.workprec(prec):
        one_minus_s2 = 1 - s * s
        eta_sum = ctx.eta1 + ctx.eta2
        one_m2 = 1 + m * m
        k2 = one_m2 * eta_sum / (H * m * beta)
        edge = one_m2 * S / m - k2 * s * S
        powers = [s ** i for i in range(n + 1)]

        geo1 = LaurentPoly({2 * i: S / powers[i + 1] for i in range(n)}, prec)
        geo2 = LaurentPoly({2 * i: powers[i] for i in range(n)}, prec)

        # first grouped block, times t^2 n shifts already folded into exponents
        blk1 = LaurentPoly({
            -2: s / one_minus_s2,
            2 * n - 2: -S / one_minus_s2,
            2 * n - 1: edge,
            -3: k2,
        }, prec)
        blk2 = LaurentPoly({
            -3: edge,
            -2: -S / one_minus_s2,
            2 * n - 2: s / one_minus_s2,
            2 * n - 1: k2,
        }, prec)
        tail_coeff = one_minus_s2 * ctx.eta1 / (H * S * beta)
        blk3 = LaurentPoly({
            -6: 1,
            4 * n: 1,
            2 * n - 4: tail_coeff,
            2 * n - 2: tail_coeff,
        }, prec)

        scale = s / S
    total = geo1 * (blk1 * scale) + geo2 * (blk2 * scale) + blk3
    poly = total.shifted(6)
    return normalize_delta(poly, "prop32", mpf(0))


def zeta_vanishing(ctx):
    """The two obstruction quantities from the final comparison.

    zeta_1 vanishes identically (an algebraic identity in H, eta_1, eta_2);
    zeta_2 factors through r0 and vanishes exactly at roots.
    """
    n, m, s, S = ctx.n, ctx.m, ctx.s, ctx.S
    H, eta1, eta2 = ctx.H, ctx.eta1, ctx.eta2
    alpha, beta = ctx.alpha, ctx.beta
    with mp.workprec(ctx.prec):
        S2 = S * S
        zeta1 = m * (m * m + 1) * s * (s + 1) * (
            H * S2 * beta - s * (S2 - 1) * eta1 - (s * S2 - 1) * eta2)
        zeta2 = (H * m * m * s * (m * alpha - m * s * s * alpha + s * beta + S2 * beta)
                 - (s * s - 1) * (m * m * eta1 + m * m * s ** 3 * eta1
                                  + s * eta2 + m * m * s * eta2))
    return zeta1, zeta2


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
