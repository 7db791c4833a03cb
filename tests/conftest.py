"""Shared fixtures and helpers: standard parameter sweeps, session-scoped
caches, evaluators of package objects that only the tests need, and the
symbolic Fox reference.

The reference works in the integral group ring, whose elements are plain
{word: int} dicts without zero coefficients: ``fox_derivative`` and
``fox_derivative_of_relator`` return one, and ``phi_map`` sends one to a
LaurentPoly matrix word by word, independently of the relator walk in
``talex.fox.Representation`` that the package computes the same images by.

Root solving and the per-root check battery are the expensive parts of the
suite, and several test modules (plus the acceptance criteria) need the
same (n, m) points, so both are memoized for the session.
"""

import pytest
from mpmath import mp, mpc, mpf

from talex import (BivarPoly, LaurentPoly, Mat2, build_holonomy_rep,
                   delta_prop32, delta_theorem, presentation_two_gen,
                   select_root, solve_s_roots, wada_polynomial, word_multiply)
from talex.fox import abelian_exponent
from talex.pretzel import build_context
from talex.verify import check_context

STD_M = (("1.2", "0.4"), ("0.9", "-0.2"))

_root_cache = {}
_ctx_cache = {}
_check_cache = {}


def eps(prec):
    """Unit roundoff at the given binary precision."""
    return mpf(2) ** (-prec)


def laurent_value(poly, t):
    """Value of a LaurentPoly at a nonzero number t, at the polynomial's
    precision."""
    with mp.workprec(poly.prec):
        return sum((c * t ** e for e, c in poly.terms.items()), mpc(0))


def rho_of_word(rep, w):
    """rho(w) multiplied out letter by letter from the identity, at
    ``rep.prec``, the product order ``Representation`` walks a relator side
    in."""
    with mp.workprec(rep.prec):
        M = Mat2.identity()
        for g, e in w:
            M = M * (rep.images[g] if e == 1 else rep.images[g].inverse())
        return M


def to_laurent(M, t_exp, prec):
    """A number matrix as the one-term LaurentPoly matrix M t^t_exp at
    ``prec`` bits."""
    return Mat2(*(LaurentPoly({t_exp: e}, prec) for e in M.entries()))


def ring_add(x, y, c=1):
    """x + c*y in the group ring."""
    out = dict(x)
    for w, cy in y.items():
        out[w] = out.get(w, 0) + c * cy
    return {w: cw for w, cw in out.items() if cw}


def ring_mul(x, y):
    """x * y in the group ring: words multiply, coefficients convolve."""
    out = {}
    for u, cu in x.items():
        for v, cv in y.items():
            out = ring_add(out, {word_multiply(u, v): cu * cv})
    return out


def fox_derivative(w, j):
    """Fox derivative d(w)/dx_j as a single left-to-right prefix scan, as a
    group-ring element."""
    terms = {}
    prefix = ()
    for g, e in w:
        if e == 1:
            if g == j:
                terms[prefix] = terms.get(prefix, 0) + 1
            prefix = word_multiply(prefix, ((g, 1),))
        else:
            prefix = word_multiply(prefix, ((g, -1),))
            if g == j:
                terms[prefix] = terms.get(prefix, 0) - 1
    return {w: c for w, c in terms.items() if c}


def fox_derivative_of_relator(rel, j):
    """d lhs/dx_j - d rhs/dx_j: the derivative of lhs rhs^-1 under Phi,
    where Phi(lhs) = Phi(rhs)."""
    return ring_add(fox_derivative(rel.lhs, j), fox_derivative(rel.rhs, j), -1)


def phi_map(elem, rep):
    """The ring map Phi on a group-ring element: each word w goes to
    rho(w) t^alpha(w), summed with its coefficient, as a LaurentPoly
    matrix at ``rep.prec``."""
    prec = rep.prec
    total = Mat2(*[LaurentPoly.zero(prec)] * 4)
    with mp.workprec(prec):
        for w, c in elem.items():
            exp = abelian_exponent(w, rep.pres.abelian_exponents)
            total = total + to_laurent(rho_of_word(rep, w).scaled(c), exp, prec)
    return total


def m_degree(poly):
    """The largest m-exponent of a BivarPoly."""
    return max(b for _, b in poly.terms)


def m_reversed(poly, degree):
    """m^degree * p(1/m, s) for a BivarPoly p: its coefficients reversed in m."""
    return BivarPoly({(a, degree - b): v for (a, b), v in poly.terms.items()})


def m_at(re_str, im_str="0", prec=256):
    """A complex number from decimal strings, rounded to ``prec`` bits."""
    with mp.workprec(prec):
        return mpc(mpf(re_str), mpf(im_str))


def three_routes(n, m_pair, prec):
    """The Fox, final-formula and grouped-form results at the default root
    of (n, m), all at ``prec`` bits."""
    m = m_at(*m_pair, prec=prec)
    roots = solve_s_roots(n, m, prec)
    ctx = build_context(n, m, roots[select_root(roots)].s, prec, strict=True)
    fox = wada_polynomial(presentation_two_gen(n),
                          build_holonomy_rep(ctx, "two"), remove_k=1)
    return fox, delta_theorem(ctx), delta_prop32(ctx)


def cached_roots(n, m_pair, prec=256):
    key = (n, m_pair, prec)
    if key not in _root_cache:
        m = m_at(*m_pair, prec=prec)
        _root_cache[key] = (m, solve_s_roots(n, m, prec))
    return _root_cache[key]


def cached_contexts(n, m_pair, prec=256):
    """One context per nondegenerate root, memoized."""
    key = (n, m_pair, prec)
    if key not in _ctx_cache:
        m, roots = cached_roots(n, m_pair, prec)
        _ctx_cache[key] = [
            build_context(n, m, rec.s, prec=prec, strict=False,
                          residual=rec.residual)
            for rec in roots if not rec.flags
        ]
    return _ctx_cache[key]


def cached_checks(n, m_pair, prec=256, independence=True):
    """check_context outcomes per nondegenerate root, memoized."""
    key = (n, m_pair, prec, independence)
    if key not in _check_cache:
        _check_cache[key] = [
            (ctx, check_context(ctx, independence=independence))
            for ctx in cached_contexts(n, m_pair, prec)
        ]
    return _check_cache[key]


@pytest.fixture(scope="session")
def std_m_pairs():
    return STD_M


@pytest.fixture(scope="session")
def default_ctx():
    """A single convenient nondegenerate context (n=2, first standard m)."""
    return cached_contexts(2, STD_M[0])[0]
