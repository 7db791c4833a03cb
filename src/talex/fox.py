"""Free-group words, Fox derivatives, and the generic Wada pipeline.

Words are tuples of (generator_index, +-1) letters, kept freely reduced.
Fox derivatives follow the standard rule d(g g')/dx_j = dg/dx_j + g dg'/dx_j
with d(x_j)/dx_j = 1 and, as a consequence, d(x_j^-1)/dx_j = -x_j^-1.

The Wada twisted Alexander polynomial of a deficiency-one presentation with
an SL2 representation is det(A_rho_k) / det(Phi(x_k - 1)), where A_rho_k is
the block matrix of Phi-images of relator derivatives with the k-th
generator's column removed.  ``wada_polynomial(rep, k)`` is the one place
that forms this quotient: it returns the normalized polynomial together
with the relative remainder of its long division (``DeltaResult.remainder``
and ``.exact``), and leaves to its caller whether a remainder is a
failure.  Everything numeric runs at the representation's precision
``rep.prec``.  A ``Presentation`` declares its abelianization, the nonzero
power of t each generator maps to, and checks on construction that every
relator abelianizes to zero.

A ``Representation`` is built for one presentation and walks each relator
once, at construction.  By the Fox rule, Phi(d w/dx_j) is a signed sum of
rho(p) t^alpha(p) over the prefixes p of w at the letters x_j^(+-1), so one
left-to-right scan of each relator side, carrying the prefix matrix rho(p)
and its t-exponent alpha(p), yields every column's block in O(L) matrix
products for a side of length L, and its last prefix is rho(side), which
gives the relation residual.  The blocks are summed from the walk on first
use, so checking only the relations never builds them.

The walk runs on Gaussian integers and reads no ``mpc``.  rho(x_j) is given
exactly, as integers over one power of two, and its inverse is adj / det of
that image rounded once (``_inverse``); the inverse and each prefix
product, an exact integer product, are ``fit`` to prec + ``GUARD_BITS``
bits (the rule and guard of ``talex.laurent``), a side's first prefix
product being its letter's image, ``fit``; each block entry is the exact
sum of its prefix entries, swept by the ``LaurentPoly`` cut; and the
residual is the ``sqrt_ratio`` of the exact end prefixes.
``wada_polynomial`` hands the blocks to ``poly_mat_det`` as they are, and
the Gaussian-integer long division reads the determinant exactly, so only
its coefficients and the quotient's are rounded at ``rep.prec``.
``wada_denominator`` writes det(rho(x_k) t^e - I) out as 1 - tr rho(x_k)
t^e + det rho(x_k) t^2e, the trace and determinant exact from the image.  Both read the presentation from ``rep.pres``, so a
representation cannot be paired with another presentation.

The symbolic Fox derivative in the group ring and the ring map Phi, which
the walk is tested against, live with the tests (``tests/conftest.py``).
"""

from dataclasses import dataclass
from functools import cached_property

from .laurent import (GUARD_BITS, divide_with_remainder, fit, fit_quotient,
                      normalize_delta, poly_mat_det, rounded, sqrt_ratio, swept_gaussian)

# ---------------------------------------------------------------------------
# words


def reduce_word(letters):
    """Freely reduce a letter sequence (stack cancellation)."""
    out = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError("letters must carry exponent +1 or -1")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_multiply(*words):
    out = ()
    for w in words:
        out = reduce_word(out + tuple(w))
    return out


def word_invert(w):
    return tuple((g, -e) for g, e in reversed(w))


def word_power(w, k):
    if k < 0:
        return word_power(word_invert(w), -k)
    return word_multiply(*([w] * k)) if k else ()


def gen(i, e=1):
    return ((i, e),)


def abelian_exponent(w, exps):
    return sum(exps[g] * e for g, e in w)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Relator:
    """A relator in equation form lhs = rhs (rhs empty for a plain word)."""

    lhs: tuple
    rhs: tuple = ()

    def as_single_word(self):
        return word_multiply(self.lhs, word_invert(self.rhs))


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relators: tuple
    abelian_exponents: tuple

    def __post_init__(self):
        n = len(self.generators)
        if len(self.relators) != n - 1:
            raise ValueError("knot-group presentations must have deficiency one")
        for rel in self.relators:
            if abelian_exponent(rel.as_single_word(), self.abelian_exponents) != 0:
                raise ValueError(f"relator {rel} does not abelianize to zero")
        if 0 in self.abelian_exponents:
            raise ValueError("every generator needs a nonzero abelian exponent")


# ---------------------------------------------------------------------------
# representations and Phi


_IDENTITY = ((1, 0, 0, 0, 0, 0, 1, 0), 0)


def _product(P, Q, bits):
    """P Q of two Gaussian-integer matrices, each given as (parts, shift):
    the re and im parts of a11, a12, a21, a22 over the one power of two
    2^shift.  The product is exact, then ``fit`` to ``bits`` bits; the
    identity times Q is ``fit`` of Q, taken without the product."""
    if P is _IDENTITY:
        return fit(*Q, bits)
    (a, b, c, d, e, f, g, h), sp = P
    (A, B, C, D, E, F, G, H), sq = Q
    parts = (a * A - b * B + c * E - d * F, a * B + b * A + c * F + d * E,
             a * C - b * D + c * G - d * H, a * D + b * C + c * H + d * G,
             e * A - f * B + g * E - h * F, e * B + f * A + g * F + h * E,
             e * C - f * D + g * G - h * H, e * D + f * C + g * H + h * G)
    return fit(parts, sp + sq, bits)


def _inverse(P, bits):
    """P^-1 of a Gaussian-integer matrix (parts, shift), det P != 0, as
    (parts, shift): adj(P) conj(det P) / |det P|^2, each part rounded once
    (``fit_quotient``) to ``bits`` bits for the largest."""
    (a, b, c, d, e, f, g, h), s = P
    dr, di = a * g - b * h - c * e + d * f, a * h + b * g - c * f - d * e
    parts = []
    for xr, xi in ((g, h), (-c, -d), (-e, -f), (a, b)):   # adj(P), row by row
        parts += [xr * dr + xi * di, xi * dr - xr * di]
    return fit_quotient(parts, dr * dr + di * di, -s, bits)


def _residual(P, Q, prec):
    """The largest entry magnitude of P - Q for Gaussian-integer matrices,
    from the exact squared magnitudes, correctly rounded at ``prec``."""
    (p, sp), (q, sq) = P, Q
    base = min(sp, sq)
    diff = [(x << (sp - base)) - (y << (sq - base)) for x, y in zip(p, q)]
    d2 = max(re * re + im * im for re, im in zip(diff[0::2], diff[1::2]))
    return sqrt_ratio(d2, 1, base, prec)


class Representation:
    """rho on the generators of ``pres``: one exact Gaussian-integer matrix
    (parts, shift) per generator, as ``_product`` takes it, with the
    precision ``prec`` that the walk and the Wada pipeline run at.

    Construction walks each relator once and keeps, per relator,
    ``residuals``: the largest entry magnitude of rho(lhs) - rho(rhs); and,
    built from the walk on first use, ``blocks``: Phi(d rel/dx_j) for every
    generator j, as the four entry polynomials (a11, a12, a21, a22) of the
    block, each an exact swept Gaussian-integer dict {e: (re, im)} over the
    one power of two 2^``shift`` that all blocks share."""

    def __init__(self, pres, images, prec):
        self.pres = pres
        self.images = tuple(images)
        self.prec = prec
        self._inverses = [_inverse(P, prec + GUARD_BITS) for P in self.images]
        walks = [self._walk(rel) for rel in pres.relators]
        self.shift = min((P[1] for terms, _ in walks for *_, P in terms),
                         default=0)
        self._terms = [terms for terms, _ in walks]
        self.residuals = tuple(_residual(*ends, prec) for _, ends in walks)

    @cached_property
    def blocks(self):
        return tuple(self._blocks(terms) for terms in self._terms)

    def _walk(self, rel):
        """One scan of each side of ``rel``: its Fox terms and the two end
        prefixes rho(lhs), rho(rhs).

        A letter x_j adds +rho(p) t^alpha(p) to block j with p the prefix
        before it; a letter x_j^-1 adds -rho(p) t^alpha(p) with p the prefix
        through it.  The rhs enters with the opposite sign: d lhs - d rhs is
        the relator's derivative wherever Phi(lhs) = Phi(rhs).  Each term is
        (j, alpha(p), sign, rho(p)).  Prefix matrices are multiplied out
        from the identity in Gaussian integers, each product ``fit`` to
        prec + ``GUARD_BITS`` bits (the first is its letter's image, ``fit``),
        so the last prefix of a side is rho(side)."""
        exps = self.pres.abelian_exponents
        bits = self.prec + GUARD_BITS
        terms, ends = [], []
        for side, sign in ((rel.lhs, 1), (rel.rhs, -1)):
            P, k = _IDENTITY, 0
            for g, e in side:
                if e == -1:
                    P, k = _product(P, self._inverses[g], bits), k - exps[g]
                terms.append((g, k, sign * e, P))
                if e == 1:
                    P, k = _product(P, self.images[g], bits), k + exps[g]
            ends.append(P)
        return terms, ends

    def _blocks(self, terms):
        """The Fox blocks of one relator from its walk's terms: each entry
        the exact sum over 2^shift, then swept."""
        acc = [({}, {}, {}, {}) for _ in self.images]
        for g, k, sign, (parts, shift) in terms:
            up = shift - self.shift
            for d, re, im in zip(acc[g], parts[0::2], parts[1::2]):
                re, im = sign * re << up, sign * im << up
                if k in d:
                    re0, im0 = d[k]
                    re, im = re0 + re, im0 + im
                d[k] = (re, im)
        return tuple(tuple(swept_gaussian(d, self.prec) for d in block)
                     for block in acc)


def wada_denominator(rep, k):
    """det Phi(x_k - 1) = det(rho(x_k) t^e - I) as a LaurentPoly, with e the
    abelian exponent of x_k: 1 - tr rho(x_k) t^e + det rho(x_k) t^2e, the
    trace and determinant exact from the image (parts over 2^s), each
    coefficient rounded once at ``rep.prec``."""
    (a, b, c, d, e, f, g, h), s = rep.images[k]
    t, base = rep.pres.abelian_exponents[k], min(0, 2 * s)
    dr, di = a * g - b * h - c * e + d * f, a * h + b * g - c * f - d * e
    return rounded({0: (1 << -base, 0), t: (-a - g << s - base, -b - h << s - base),
                    2 * t: (dr << 2 * s - base, di << 2 * s - base)}, base, rep.prec)


def wada_polynomial(rep, remove_k):
    """Wada's quotient for ``rep`` with the remove_k column of blocks
    deleted: the determinant of the 2(n-1) x 2(n-1) matrix of Fox blocks,
    long-divided by det Phi(x_k - 1) and unit-normalized.  The division's
    relative remainder is the result's ``remainder``; nothing is raised for
    a division that is not exact."""
    rows = []
    for blocks in rep.blocks:
        top, bottom = [], []
        for j, (a11, a12, a21, a22) in enumerate(blocks):
            if j != remove_k:
                top += [a11, a12]
                bottom += [a21, a22]
        rows += [top, bottom]
    num = poly_mat_det(rows, rep.shift, rep.prec)
    quot, remainder = divide_with_remainder(num, wada_denominator(rep, remove_k))
    return normalize_delta(quot, "fox", remainder)
