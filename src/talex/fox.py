"""Free-group words, Fox derivatives, and the generic Wada pipeline.

Words are tuples of (generator_index, +-1) letters, kept freely reduced.
Fox derivatives follow the standard rule d(g g')/dx_j = dg/dx_j + g dg'/dx_j
with d(x_j)/dx_j = 1 and, as a consequence, d(x_j^-1)/dx_j = -x_j^-1.

The Wada twisted Alexander polynomial of a deficiency-one presentation with
an SL2 representation is det(A_rho_k) / det(Phi(x_k - 1)), where A_rho_k is
the block matrix of Phi-images of relator derivatives with the k-th
generator's column removed.  Everything numeric runs at the
representation's precision ``rep.prec``.  A ``Presentation`` declares its
abelianization, the nonzero power of t each generator maps to, and checks
on construction that every relator abelianizes to zero.

A ``Representation`` is built for one presentation and walks each relator
once, at construction.  By the Fox rule, Phi(d w/dx_j) is a signed sum of
rho(p) t^alpha(p) over the prefixes p of w at the letters x_j^(+-1), so one
left-to-right scan of each relator side, carrying the prefix matrix rho(p)
and its t-exponent alpha(p), yields every column's block in O(L) matrix
products for a side of length L, and its last prefix is rho(side), which
gives the relation residual.  ``wada_numerator`` assembles A_rho_k from
those blocks; ``wada_denominator`` writes det(rho(x_k) t^e - I) out as
1 - tr rho(x_k) t^e + det rho(x_k) t^2e.  Both raise ``ValueError`` for a
representation of another presentation.

The symbolic Fox derivative in the group ring and the ring map Phi, which
the walk is tested against, live with the tests (``tests/conftest.py``).
"""

from dataclasses import dataclass

from mpmath import mp

from .laurent import (LaurentPoly, Mat2, laurent_divide_exact, normalize_delta,
                      poly_mat_det)

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


class Representation:
    """rho on the generators of ``pres``: one Mat2 of numbers per generator,
    with the precision ``prec`` that every product of them is computed at.

    Construction walks each relator once and keeps, per relator,
    ``blocks``: Phi(d rel/dx_j) for every generator j, as LaurentPoly Mat2
    blocks, and ``residuals``: the infinity-norm of rho(lhs) - rho(rhs)."""

    def __init__(self, pres, images, prec):
        self.pres = pres
        self.images = tuple(images)
        self.prec = prec
        with mp.workprec(prec):
            self._inverses = tuple(M.inverse() for M in self.images)
            walks = [self._walk(rel) for rel in pres.relators]
        self.blocks = tuple(blocks for blocks, _ in walks)
        self.residuals = tuple(res for _, res in walks)

    def _walk(self, rel):
        """One scan of each side of ``rel``: (its Fox blocks, its residual).

        A letter x_j adds +rho(p) t^alpha(p) to block j with p the prefix
        before it; a letter x_j^-1 adds -rho(p) t^alpha(p) with p the prefix
        through it.  The rhs enters with the opposite sign: d lhs - d rhs is
        the relator's derivative wherever Phi(lhs) = Phi(rhs).  Prefix
        matrices are multiplied out from the identity, so the last prefix of
        a side is rho(side)."""
        exps = self.pres.abelian_exponents
        acc = [({}, {}, {}, {}) for _ in self.images]
        ends = []
        for side, sign in ((rel.lhs, 1), (rel.rhs, -1)):
            P, k = Mat2.identity(), 0
            for g, e in side:
                if e == -1:
                    P, k = P * self._inverses[g], k - exps[g]
                for d, v in zip(acc[g], P.entries()):
                    if sign != e:
                        v = -v
                    d[k] = d[k] + v if k in d else v
                if e == 1:
                    P, k = P * self.images[g], k + exps[g]
            ends.append(P)
        blocks = tuple(Mat2(*(LaurentPoly(d, self.prec) for d in a))
                       for a in acc)
        return blocks, (ends[0] - ends[1]).infnorm()


def wada_denominator(pres, rep, k):
    """det Phi(x_k - 1) = det(rho(x_k) t^e - I) as a LaurentPoly, with e the
    abelian exponent of x_k: 1 - tr rho(x_k) t^e + det rho(x_k) t^2e, each
    coefficient rounded once at ``rep.prec``."""
    if rep.pres != pres:
        raise ValueError("the representation is not one of this presentation")
    M, e = rep.images[k], pres.abelian_exponents[k]
    with mp.workprec(rep.prec):
        return LaurentPoly({0: 1, e: -(M.a11 + M.a22), 2 * e: M.det()}, rep.prec)


def wada_numerator(pres, rep, remove_k):
    """det of the 2(n-1) x 2(n-1) matrix of Phi-images of relator
    derivatives with the remove_k column of blocks deleted."""
    if rep.pres != pres:
        raise ValueError("the representation is not one of this presentation")
    rows = []
    for blocks in rep.blocks:
        top, bottom = [], []
        for j, b in enumerate(blocks):
            if j != remove_k:
                top += [b.a11, b.a12]
                bottom += [b.a21, b.a22]
        rows += [top, bottom]
    return poly_mat_det(rows)


def wada_polynomial(pres, rep, remove_k):
    """The full generic pipeline: numerator determinant, exact division by
    det Phi(x_k - 1), and unit normalization."""
    den = wada_denominator(pres, rep, remove_k)
    num = wada_numerator(pres, rep, remove_k)
    quot = laurent_divide_exact(num, den)
    return normalize_delta(quot, "fox")
