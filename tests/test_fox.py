"""Free-group words, Fox derivatives, abelianization, and the Phi map.

The symbolic Fox reference and the group-ring arithmetic the identities
below are stated in (``ring_add``, ``ring_mul``) are in ``conftest``."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from talex import (Presentation, Relator, solve_s_roots, verify, word_invert,
                   word_multiply)
from talex.fox import (Representation, _inverse, _residual, abelian_exponent, gen,
                       reduce_word, wada_denominator, wada_polynomial,
                       word_power)
from talex.laurent import coefficient_deviation, fit, rounded
from talex.pretzel import (build_holonomy_rep, presentation_three_gen,
                           presentation_two_gen)
from conftest import (STD_M, block_matrices, cached_checks, cached_contexts,
                      cached_roots, coeffs, eps, exact_inverse, fox_derivative,
                      fox_derivative_of_relator, identity, infnorm, mat_add,
                      mat_infnorm, mat_sub, mpc_matrix, mpc_walk_blocks, phi_map,
                      rho_of_word, ring_add, ring_mul, round_to_bits, to_laurent)


def rand_word(rng, num_gens=2, length=8):
    return reduce_word([(rng.randrange(num_gens), rng.choice((1, -1)))
                        for _ in range(length)])


def max_entry_gap(P, Q):
    """The largest infinity-norm of an entry of P - Q, for LaurentPoly
    matrices."""
    return max(infnorm(p - q) for p, q in zip(P.entries(), Q.entries()))


# -- words ------------------------------------------------------------------


def test_reduce_word_cancellation():
    assert reduce_word([(0, 1), (0, -1)]) == ()
    assert reduce_word([(0, 1), (1, 1), (1, -1), (0, -1)]) == ()
    assert reduce_word([(0, 1), (1, 1), (0, -1)]) == ((0, 1), (1, 1), (0, -1))


def test_word_group_axioms():
    rng = random.Random(101)
    for _ in range(30):
        u, v = rand_word(rng), rand_word(rng)
        assert word_multiply(u, word_invert(u)) == ()
        assert word_invert(word_invert(u)) == u
        assert word_invert(word_multiply(u, v)) == word_multiply(
            word_invert(v), word_invert(u))


def test_word_power():
    w = ((0, 1), (1, 1))
    assert word_power(w, 0) == ()
    assert word_power(w, 3) == word_multiply(w, w, w)
    assert word_power(w, -2) == word_invert(word_multiply(w, w))


def test_abelian_exponent():
    w = word_multiply(gen(0), gen(1), gen(0), word_invert(gen(1)))
    assert abelian_exponent(w, (1, 5)) == 2
    assert abelian_exponent(w, (1, 1)) == 2


# -- Fox derivatives --------------------------------------------------------


def test_fox_derivative_generators():
    assert fox_derivative(gen(0), 0) == {(): 1}
    assert fox_derivative(gen(0), 1) == {}
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(gen(0, -1), 0) == {gen(0, -1): -1}


def test_fox_derivative_worked_example():
    # w = a c a c^-1: dw/da = 1 + ac, dw/dc = a - acac^-1
    a, c = gen(0), gen(1)
    w = word_multiply(a, c, a, word_invert(c))
    da = fox_derivative(w, 0)
    dc = fox_derivative(w, 1)
    assert da == {(): 1, word_multiply(a, c): 1}
    assert dc == {a: 1, w: -1}


def test_fox_product_rule():
    rng = random.Random(31337)
    for _ in range(25):
        u, v = rand_word(rng), rand_word(rng)
        uv = word_multiply(u, v)
        for j in range(2):
            lhs = fox_derivative(uv, j)
            rhs = ring_add(fox_derivative(u, j),
                           ring_mul({u: 1}, fox_derivative(v, j)))
            assert lhs == rhs, (u, v, j)


def test_fox_fundamental_identity():
    """sum_j dw/dx_j (x_j - 1) = w - 1, exactly in the group ring."""
    rng = random.Random(271828)
    one = {(): 1}
    for _ in range(25):
        w = rand_word(rng, num_gens=3, length=10)
        total = {}
        for j in range(3):
            xj = ring_add({gen(j): 1}, one, -1)
            total = ring_add(total, ring_mul(fox_derivative(w, j), xj))
        assert total == ring_add({w: 1}, one, -1)


# -- presentations ----------------------------------------------------------


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "b"), (), (1, 1))  # deficiency 2
    with pytest.raises(ValueError):
        # relator does not abelianize to zero under the claimed exponents
        Presentation(("a", "b"), (Relator(gen(0), gen(1)),), (1, 2))
    with pytest.raises(ValueError):
        # a generator with abelian exponent zero
        Presentation(("a", "b"), (Relator(gen(0), gen(0)),), (1, 0))


def exponent_row(rel, num_generators):
    """The abelianized relator: the exponent sum of each generator."""
    w = rel.as_single_word()
    return [abelian_exponent(w, [int(g == j) for g in range(num_generators)])
            for j in range(num_generators)]


def test_declared_abelianization_spans_the_relator_kernel():
    """The declared exponents are, up to scale, the only ones every relator
    abelianizes to zero under (``Presentation`` checks that they do): the
    exponent rows have rank one less than the number of generators."""
    for n in (1, 2, 3, 5):
        two = presentation_two_gen(n)
        assert two.abelian_exponents == (1, 2 * n + 1)
        assert any(exponent_row(two.relators[0], 2))
        three = presentation_three_gen(n)
        assert three.abelian_exponents == (1, 1, 2 * n)
        u, v = (exponent_row(rel, 3) for rel in three.relators)
        cross = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0]]
        assert cross[0] != 0
        assert cross == [cross[0] * e for e in (1, 1, 2 * n)]


def test_relator_single_word_and_derivative():
    rel = Relator(gen(0), word_multiply(gen(1), gen(0), word_invert(gen(1))))
    w = rel.as_single_word()
    assert abelian_exponent(w, (1, 1)) == 0
    # d(a)/da - d(c a c^-1)/da = 1 - c
    assert fox_derivative_of_relator(rel, 0) == {(): 1, gen(1): -1}


# -- Phi --------------------------------------------------------------------


def test_phi_is_ring_map_on_samples():
    ctx = cached_contexts(2, ("1.2", "0.4"))[0]
    rep = build_holonomy_rep(ctx, "two")
    rng = random.Random(99)
    for _ in range(6):
        u, v = rand_word(rng), rand_word(rng)
        lhs = phi_map(ring_mul({u: 1}, {v: 1}), rep)
        rhs = phi_map({u: 1}, rep) * phi_map({v: 1}, rep)
        assert max_entry_gap(lhs, rhs) < eps(200) * (1 + mat_infnorm(rhs))


def test_phi_additive():
    ctx = cached_contexts(2, ("1.2", "0.4"))[0]
    rep = build_holonomy_rep(ctx, "two")
    u = word_multiply(gen(0), gen(1))
    direct = phi_map({u: 2, gen(1): -3}, rep)
    parts = mat_add(phi_map({u: 1}, rep).scaled(2),
                    phi_map({gen(1): 1}, rep).scaled(-3))
    assert max_entry_gap(direct, parts) < eps(200)


@pytest.mark.parametrize("n", (1, 2, 5))
def test_fox_scan_matches_symbolic_phi(n):
    """The one-pass scan equals Phi of the symbolic Fox derivative, entry by
    entry, for every relator and every column of both presentations."""
    ctx = cached_contexts(n, ("1.2", "0.4"))[0]
    for pres, kind in ((presentation_two_gen(n), "two"),
                       (presentation_three_gen(n), "three")):
        rep = build_holonomy_rep(ctx, kind)
        tol = mpf(2) ** -(rep.prec - 16)
        for i, rel in enumerate(pres.relators):
            for j, block in enumerate(block_matrices(rep, i)):
                ref = phi_map(fox_derivative_of_relator(rel, j), rep)
                for got, want in zip(block.entries(), ref.entries()):
                    assert got.support() == want.support(), (kind, j)
                    assert infnorm(got - want) <= tol * infnorm(want), (kind, j)


def test_wada_denominator_meridian_factorization():
    """det Phi(a - 1) = (mt - 1)(t/m - 1): eigenvalues m, 1/m of the
    meridian image."""
    ctx = cached_contexts(2, ("1.2", "0.4"))[0]
    den = wada_denominator(build_holonomy_rep(ctx, "two"), 0)
    m = ctx.m
    assert den.support() == [0, 1, 2]
    with mp.workprec(ctx.prec):
        assert abs(den.coeff(0) - 1) < eps(200)
        assert abs(den.coeff(2) - 1) < eps(200)
        assert abs(den.coeff(1) + (m + 1 / m)) < eps(200)


@pytest.mark.parametrize("m_pair", STD_M)
@pytest.mark.parametrize("n", (1, 2, 5))
def test_wada_denominator_is_the_laurent_determinant(n, m_pair):
    """The three written-out coefficients of ``wada_denominator`` are, bit
    for bit, those of det(rho(x_k) t^e - I) built through Laurent-matrix
    arithmetic on the exact image, at 4096 bits, where no product or sum of
    these entries of prec + 64 bits rounds, then each rounded once at
    ``rep.prec``: for every generator of both presentations at every
    nondegenerate root."""
    for ctx in cached_contexts(n, m_pair):
        for kind in ("two", "three"):
            rep = build_holonomy_rep(ctx, kind)
            for k, e in enumerate(rep.pres.abelian_exponents):
                block = to_laurent(mpc_matrix(rep.images[k]), e, 4096)
                exact = mat_sub(block, to_laurent(identity(), 0, 4096)).det()
                ref = rounded(exact.terms, exact.shift, rep.prec)
                den = wada_denominator(rep, k)
                assert (den.prec, coeffs(den)) == (ref.prec, coeffs(ref)), (kind, k)


@pytest.mark.parametrize("prec, tol", ((256, mpf("1e-68")), (512, mpf("1e-144"))))
def test_every_three_generator_column_agrees_with_the_two_generator_route(prec, tol):
    """At every nondegenerate root of n = 5, m = 1.2+0.4i, removing any of
    the three columns a, b, x of the three-generator presentation gives an
    exact quotient within ``tol`` of the two-generator Delta, relative per
    coefficient (measured 1.72e-70 at 256 bits, 5.45e-147 at 512; column b
    once gave a Delta off by order 1 with ``.exact`` True)."""
    contexts = cached_contexts(5, STD_M[0], prec)
    assert len(contexts) == 24
    for ctx in contexts:
        two = wada_polynomial(build_holonomy_rep(ctx, "two"), 1).poly
        rep = build_holonomy_rep(ctx, "three")
        for k in range(3):
            res = wada_polynomial(rep, k)
            assert res.exact, k
            assert coefficient_deviation(res.poly, two) < tol, k


def test_check_context_division_is_the_fox_route_remainder():
    """``check_context`` reports the remainder of ``wada_polynomial(rep2, 1)``
    as its division check, bit for bit."""
    for ctx, outcomes in cached_checks(2, STD_M[0]):
        division = next(c for c in outcomes if c.name == "division")
        want = wada_polynomial(build_holonomy_rep(ctx, "two"), 1).remainder
        assert division.value._mpf_ == want._mpf_


def test_independence_fails_when_an_alternative_division_is_inexact(monkeypatch):
    """An alternative Fox route (column 0 removed) with a remainder is no
    polynomial to compare: independence reads +inf and fails."""
    ctx = cached_contexts(2, STD_M[0])[0]

    def wada(rep, k):
        res = wada_polynomial(rep, k)
        if k == 0:
            res.remainder = mpf("nan")
        return res
    monkeypatch.setattr(verify, "wada_polynomial", wada)
    outcomes = {c.name: c for c in verify.check_context(ctx, independence=True)}
    assert outcomes["division"].passed
    assert outcomes["independence"].value == mpf("inf")
    assert not outcomes["independence"].passed


def test_fox_blocks_are_built_on_first_use(monkeypatch):
    """A representation walks its relators at construction but builds its
    Fox blocks on first use: ``check_context`` without the independence
    checks reads only the relation residuals of the three-generator
    representation, never its blocks; with them, each presentation's
    blocks are built once per relator."""
    built = []
    blocks = Representation._blocks

    def recording(rep, terms):
        built.append(len(rep.pres.generators))
        return blocks(rep, terms)
    monkeypatch.setattr(Representation, "_blocks", recording)
    ctx = cached_contexts(2, STD_M[0])[0]
    verify.check_context(ctx, independence=False)
    assert built == [2]
    built.clear()
    verify.check_context(ctx, independence=True)
    assert sorted(built) == [2, 3, 3]


def test_representation_inverses():
    ctx = cached_contexts(2, ("1.2", "0.4"))[0]
    rep = build_holonomy_rep(ctx, "three")
    w = word_multiply(gen(0), gen(2, -1), gen(1), gen(0, -1))
    M = rho_of_word(rep, w)
    Minv = rho_of_word(rep, word_invert(w))
    with mp.workprec(rep.prec):
        prod = M * Minv
        assert abs(prod.a11 - 1) < mpf("1e-60")
        assert abs(prod.a21) < mpf("1e-60")


def test_walk_inverse_is_the_exact_inverse_rounded_once():
    """The walk's inverse of an exact image is adj / det in exact Fractions
    rounded once, to nearest, ties to even, on the one power of two that
    gives the largest part ``bits`` bits (``round_to_bits``), bit for bit:
    on random Gaussian matrices with parts of both signs and of 1 to 400
    bits over a random power of two, so that det lies far from 1; on
    matrices [[1, x], [0, 1]] with x an odd number of bits + 1 bits, whose
    inverse's largest part is an exact tie; and on the holonomy images at
    128, 256 and 512 bits."""
    rng = random.Random(28)
    cases = []
    for _ in range(400):
        bits = rng.choice((64, 128, 192, 320, 576))
        sizes = [rng.randint(1, 400) for _ in range(8)]
        parts = [rng.choice((-1, 1)) * rng.getrandbits(k) for k in sizes]
        cases.append(((parts, rng.randint(-600, 200)), bits))
    for _ in range(50):
        bits = rng.choice((64, 128, 192))
        x = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << bits | 1)
        cases.append((([1, 0, x, 0, 0, 0, 1, 0], rng.randint(-20, 20)), bits))
    for prec in (128, 256, 512):
        for ctx in cached_contexts(3, STD_M[0], prec)[:3]:
            cases += [(P, prec + 64) for P in ctx.holonomy_matrices]
    ties = 0
    for (parts, shift), bits in cases:
        exact = [Fraction(x) * Fraction(2) ** shift for x in parts]
        got, exp = _inverse((parts, shift), bits)
        want = round_to_bits(exact_inverse(exact), bits)
        assert [Fraction(x) * Fraction(2) ** exp for x in got] == want, (parts, shift, bits)
        assert max(map(abs, got)).bit_length() in (bits, bits + 1)
        ties += parts[:2] == [1, 0] and parts[4:] == [0, 0, 1, 0]
    assert ties == 50


def four_product(P, Q, bits):
    """P Q of two Gaussian-integer matrices (parts, shift) with four
    integer products per entry product, exact, then ``fit``."""
    (a, b, c, d, e, f, g, h), sp = P
    (A, B, C, D, E, F, G, H), sq = Q
    return fit([a * A - b * B + c * E - d * F, a * B + b * A + c * F + d * E,
                a * C - b * D + c * G - d * H, a * D + b * C + c * H + d * G,
                e * A - f * B + g * E - h * F, e * B + f * A + g * F + h * E,
                e * C - f * D + g * G - h * H, e * D + f * C + g * H + h * G], sp + sq, bits)


def identity_walk(rep, rel):
    """The relator walk of ``Representation._walk`` with every prefix
    multiplied out from the identity by ``four_product``: the first
    product of a side is the identity times its letter's image."""
    exps, bits = rep.pres.abelian_exponents, rep.prec + 64
    inverses = [_inverse(P, bits) for P in rep.images]
    terms, ends = [], []
    for side, sign in ((rel.lhs, 1), (rel.rhs, -1)):
        P, k = ([1, 0, 0, 0, 0, 0, 1, 0], 0), 0
        for g, e in side:
            if e == -1:
                P, k = four_product(P, inverses[g], bits), k - exps[g]
            terms.append((g, k, sign * e, P))
            if e == 1:
                P, k = four_product(P, rep.images[g], bits), k + exps[g]
        ends.append(P)
    return terms, ends


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_walk_starts_from_the_first_image(n):
    """Each side of the walk starts from ``fit`` of its first letter's
    image, with no identity x image product, which changes no bit: the
    walk's terms, its Fox blocks, their ``shift`` and the ``residuals`` are
    those of ``identity_walk``, in both presentations at every
    nondegenerate root of both standard m."""
    def flat(terms):
        return [(g, k, sign, list(parts), shift) for g, k, sign, (parts, shift) in terms]

    for m_pair in STD_M:
        for ctx in cached_contexts(n, m_pair):
            for kind in ("two", "three"):
                rep = build_holonomy_rep(ctx, kind)
                walks = [identity_walk(rep, rel) for rel in rep.pres.relators]
                assert [flat(t) for t in rep._terms] == [flat(t) for t, _ in walks]
                assert rep.shift == min(P[1] for t, _ in walks for *_, P in t)
                assert rep.blocks == tuple(rep._blocks(t) for t, _ in walks)
                assert rep.residuals == tuple(_residual(*ends, rep.prec) for _, ends in walks)


# The m that the benchmark's check_battery workload draws at its seed 0.
BATTERY_M = ("0.6872", "-1.0699")


def walk_error(blocks, ref, prec):
    """The largest error of a kept block coefficient against the reference,
    relative to its entry: max over blocks, entries and the entry's support
    of |got_e - want_e| / ||want||_inf.  What the block swept to zero must
    lie at the sweep cut 2^-(prec-8) ||want||_inf of the walk's precision
    ``prec`` (within a factor 2)."""
    worst = mpf(0)
    for got, want in zip(blocks, ref):
        for p, q in zip(got.entries(), want.entries()):
            if q.is_zero():
                assert p.is_zero()
                continue
            norm = infnorm(q)
            with mp.workprec(q.prec):
                kept = max((abs(c - q.coeff(e)) for e, c in coeffs(p).items()),
                           default=0)
                dropped = max((abs(c) for e, c in coeffs(q).items()
                               if e not in p.terms), default=0)
                worst = max(worst, kept / norm)
            assert dropped <= 2 * eps(prec - 8) * norm
    return worst


@pytest.mark.parametrize("n, m_pair", [(n, m) for n in (3, 5, 8) for m in STD_M]
                         + [(5, BATTERY_M)],
                         ids=["n3-m0", "n3-m1", "n5-m0", "n5-m1", "n8-m0", "n8-m1",
                              "n5-battery"])
def test_gaussian_walk_is_no_less_accurate_than_the_mpc_walk(n, m_pair):
    """At every nondegenerate root, in both presentations, the exact
    Gaussian-integer blocks are no farther from a 1024-bit walk of the same
    rounded images than the blocks of the letter-by-letter ``mpc`` walk at
    the representation's precision (measured about 1e-15 times as far)."""
    for ctx in cached_contexts(n, m_pair):
        for kind in ("two", "three"):
            rep = build_holonomy_rep(ctx, kind)
            new = old = mpf(0)
            for i, rel in enumerate(rep.pres.relators):
                ref = mpc_walk_blocks(rep, rel, 1024)
                gaussian = block_matrices(rep, i, 1024)
                walked = mpc_walk_blocks(rep, rel, rep.prec)
                new = max(new, walk_error(gaussian, ref, rep.prec))
                old = max(old, walk_error(walked, ref, rep.prec))
            assert new <= old, (kind, new, old)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_fox_route_m_symmetries(n):
    """m -> -m twists rho by the sign character, and both abelian exponents
    (1 and 2n + 1) are odd, so the Fox route at -m is t -> -t of the one at
    m: coefficient e times (-1)^e.  m -> 1/m gives the same polynomial.  The
    route imposes neither.  Roots are matched by index, as the root sets
    of m, -m and 1/m are pinned to be one.  Every rounding to nearest rounds
    ties to even, which is odd, so at -m the stored Gaussian integers and
    their power of two are (-1)^e times those at m, bit for bit, in both
    presentations.  At 1/m, measured at most 1.2e-71."""
    for m_pair in STD_M:
        m, roots = cached_roots(n, m_pair)
        with mp.workprec(256):
            negated, inverted = solve_s_roots(n, -m, 256), solve_s_roots(n, 1 / m, 256)
        for base, other in zip(roots, negated):
            assert base.flags == other.flags
            if base.flags:
                continue
            for kind, k in (("two", 1), ("three", 0)):
                p, q = (wada_polynomial(build_holonomy_rep(c, kind), k).poly
                        for c in (base, other))
                assert q.shift == p.shift, (kind, m_pair)
                assert q.terms == {e: (-re, -im) if e % 2 else (re, im)
                                   for e, (re, im) in p.terms.items()}, (kind, m_pair)
        for base, other in zip(roots, inverted):
            assert base.flags == other.flags
            if base.flags:
                continue
            p, q = (wada_polynomial(build_holonomy_rep(c, "two"), 1).poly
                    for c in (base, other))
            with mp.workprec(512):
                gap = max(abs(q.coeff(e) - p.coeff(e)) for e in range(4 * n + 7))
            assert gap <= mpf("1e-60")
