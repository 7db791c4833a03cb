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

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from talex import (BivarPoly, LaurentPoly, build_holonomy_rep,
                   delta_prop32, delta_theorem, select_root,
                   solve_s_roots, wada_polynomial, word_multiply)
from talex.fox import abelian_exponent
from talex.laurent import max_abs, rounded
from talex.verify import check_context

STD_M = (("1.2", "0.4"), ("0.9", "-0.2"))

_root_cache = {}
_check_cache = {}


def eps(prec):
    """Unit roundoff at the given binary precision."""
    return mpf(2) ** (-prec)


def coeffs(poly):
    """The coefficients of a LaurentPoly as a dict {e: mpc}."""
    return {e: poly.coeff(e) for e in poly.terms}


def laurent_value(poly, t):
    """Value of a LaurentPoly at a nonzero number t, at the polynomial's
    precision."""
    with mp.workprec(poly.prec):
        return sum((c * t ** e for e, c in coeffs(poly).items()), mpc(0))


class Mat2:
    """A 2x2 matrix of numbers or of LaurentPolys for the reference
    arithmetic of the tests, in ``mpc`` at the ambient precision.  The
    package holds a matrix as Gaussian integers over one power of two,
    (parts, shift); ``mpc_matrix`` reads one exactly."""

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


def mpc_matrix(P):
    """A Gaussian-integer matrix (parts, shift) as the Mat2 of its exact
    ``mpc`` entries a11, a12, a21, a22."""
    parts, shift = P
    return Mat2(*(mp.make_mpc((from_man_exp(re, shift), from_man_exp(im, shift)))
                  for re, im in zip(parts[0::2], parts[1::2])))


def identity():
    """The 2x2 identity matrix of numbers."""
    return Mat2(mpc(1), mpc(0), mpc(0), mpc(1))


def mat_add(P, Q):
    """P + Q entrywise, for matrices of numbers or of LaurentPolys."""
    return Mat2(*(p + q for p, q in zip(P.entries(), Q.entries())))


def mat_sub(P, Q):
    """P - Q entrywise, for matrices of numbers or of LaurentPolys."""
    return Mat2(*(p - q for p, q in zip(P.entries(), Q.entries())))


def infnorm(p):
    """The largest coefficient magnitude of a LaurentPoly, at its
    precision."""
    return max_abs(p, p.support())


def mat_infnorm(M):
    """The largest infinity-norm of an entry of a LaurentPoly matrix."""
    return max(infnorm(e) for e in M.entries())


def mpc_inverse(M):
    """The inverse of a 2x2 number matrix in ``mpc`` at the ambient
    precision: adjugate over determinant, each entry one ``mpc`` division."""
    d = M.det()
    return Mat2(M.a22 / d, -M.a12 / d, -M.a21 / d, M.a11 / d)


def rho_of_word(rep, w):
    """rho(w) multiplied out letter by letter from the identity in ``mpc``
    at ``rep.prec``."""
    images = [mpc_matrix(M) for M in rep.images]
    with mp.workprec(rep.prec):
        M = identity()
        for g, e in w:
            M = M * (images[g] if e == 1 else mpc_inverse(images[g]))
        return M


def exact_matrix(P):
    """A Gaussian-integer matrix (parts, shift) as its 8 exact parts: re, im
    of a11, a12, a21, a22."""
    parts, shift = P
    return [Fraction(x) * Fraction(2) ** shift for x in parts]


def exact_product(P, Q):
    """The exact product of two matrices given by their 8 parts."""
    def cmul(i, j):
        return (P[i] * Q[j] - P[i + 1] * Q[j + 1],
                P[i] * Q[j + 1] + P[i + 1] * Q[j])

    out = []
    for i, j, k, l in ((0, 0, 2, 4), (0, 2, 2, 6), (4, 0, 6, 4), (4, 2, 6, 6)):
        (r1, i1), (r2, i2) = cmul(i, j), cmul(k, l)
        out += [r1 + r2, i1 + i2]
    return out


def round_to_bits(parts, bits):
    """Every part rounded to nearest, ties to even, on the one power of two
    2^(t - bits), where 2^(t-1) <= max |part| < 2^t."""
    top = max(map(abs, parts))
    if not top:
        return parts
    t = top.numerator.bit_length() - top.denominator.bit_length()
    while Fraction(2) ** t <= top:
        t += 1
    while Fraction(2) ** (t - 1) > top:
        t -= 1
    grid = Fraction(2) ** (t - bits)
    return [round(x / grid) * grid for x in parts]


def exact_inverse(P):
    """The exact inverse, adj / det, of a matrix given by its 8 parts."""
    (a, b, c, d, e, f, g, h) = P
    det_r, det_i = a * g - b * h - c * e + d * f, a * h + b * g - c * f - d * e
    norm = det_r * det_r + det_i * det_i
    out = []
    for xr, xi in ((g, h), (-c, -d), (-e, -f), (a, b)):
        out += [(xr * det_r + xi * det_i) / norm, (xi * det_r - xr * det_i) / norm]
    return out


def walked_rho_of_word(rep, w):
    """rho(w) as the relator walk of ``talex.fox.Representation`` defines
    it, computed here in exact Fractions: from the identity, letter by
    letter, each exact product with rho(x_j), or with its inverse (adj / det
    of the exact image, itself rounded once to rep.prec + 64 bits), rounded
    to rep.prec + 64 bits.  Returns the 8 exact parts."""
    images = [exact_matrix(M) for M in rep.images]
    inverses = [round_to_bits(exact_inverse(P), rep.prec + 64) for P in images]
    P = [Fraction(x) for x in (1, 0, 0, 0, 0, 0, 1, 0)]
    for g, e in w:
        P = round_to_bits(exact_product(P, images[g] if e == 1 else inverses[g]),
                          rep.prec + 64)
    return P


def walked_residual(rep, rel):
    """The residual the walk defines for relator ``rel``: the largest entry
    magnitude of rho(lhs) - rho(rhs) of ``walked_rho_of_word``, correctly
    rounded at ``rep.prec``."""
    lhs, rhs = (walked_rho_of_word(rep, side) for side in (rel.lhs, rel.rhs))
    d = [x - y for x, y in zip(lhs, rhs)]
    d2 = max(d[i] * d[i] + d[i + 1] * d[i + 1] for i in (0, 2, 4, 6))
    den = d2.denominator
    assert den & (den - 1) == 0   # dyadic
    exact = mp.make_mpf(from_man_exp(d2.numerator, 1 - den.bit_length()))
    with mp.workprec(rep.prec):
        return mp.sqrt(exact)


def mpc_walk_blocks(rep, rel, prec):
    """The Fox blocks of relator ``rel`` by a relator walk in ``mpc`` at
    ``prec`` bits: prefix matrices multiplied letter by letter, each block
    coefficient summed term by term, every operation rounded at ``prec``.
    The images are ``rep.images`` and their inverses are computed in
    ``mpc`` at ``prec`` too, so at ``prec`` = ``rep.prec`` this is the walk
    in ``mpc`` that the Gaussian-integer walk replaced, and at a high
    ``prec`` it is a reference walk of the same rounded images."""
    exps = rep.pres.abelian_exponents
    images = [mpc_matrix(M) for M in rep.images]
    acc = [({}, {}, {}, {}) for _ in images]
    with mp.workprec(prec):
        inverses = [mpc_inverse(M) for M in images]
        for side, sign in ((rel.lhs, 1), (rel.rhs, -1)):
            P, k = identity(), 0
            for g, e in side:
                if e == -1:
                    P, k = P * inverses[g], k - exps[g]
                for d, v in zip(acc[g], P.entries()):
                    v = v if sign == e else -v
                    d[k] = d[k] + v if k in d else v
                if e == 1:
                    P, k = P * images[g], k + exps[g]
    return [Mat2(*(LaurentPoly(d, prec) for d in a)) for a in acc]


def to_laurent(M, t_exp, prec):
    """A number matrix as the one-term LaurentPoly matrix M t^t_exp at
    ``prec`` bits."""
    return Mat2(*(LaurentPoly({t_exp: e}, prec) for e in M.entries()))


def block_matrices(rep, i, prec=None):
    """The Fox blocks of relator ``i`` of ``rep`` as LaurentPoly matrices,
    each exact coefficient rounded once at ``prec`` bits (default
    ``rep.prec``)."""
    return [Mat2(*(rounded(d, rep.shift, prec or rep.prec) for d in block))
            for block in rep.blocks[i]]


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
    total = Mat2(*[LaurentPoly({}, prec)] * 4)
    with mp.workprec(prec):
        for w, c in elem.items():
            exp = abelian_exponent(w, rep.pres.abelian_exponents)
            total = mat_add(total, to_laurent(rho_of_word(rep, w).scaled(c),
                                              exp, prec))
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
    roots = solve_s_roots(n, m_at(*m_pair, prec=prec), prec)
    ctx = roots[select_root(roots)]
    fox = wada_polynomial(build_holonomy_rep(ctx, "two"), 1)
    return fox, delta_theorem(ctx), delta_prop32(ctx)


def cached_roots(n, m_pair, prec=256):
    key = (n, m_pair, prec)
    if key not in _root_cache:
        m = m_at(*m_pair, prec=prec)
        _root_cache[key] = (m, solve_s_roots(n, m, prec))
    return _root_cache[key]


def cached_contexts(n, m_pair, prec=256):
    """The solver's context of every nondegenerate root, memoized."""
    return [ctx for ctx in cached_roots(n, m_pair, prec)[1] if not ctx.flags]


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
