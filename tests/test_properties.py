"""Property tests over random (n, m): the three routes agree and the Fox
route reproduces the shape claims, at 256 and at 128 bits, and they stop
agreeing once s is moved off the root.  m is drawn as the benchmark draws
it: 0.7 <= |m| <= 1.5, 0.15 <= |arg m| <= pi/2 - 0.15, as 4-decimal
strings.  The last test draws |m| log-uniformly from [0.05, 10] and runs
the whole ``verify_sweep`` there."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from talex import DegenerateContext, build_context, genus_fiberedness_report
from talex.laurent import max_pairwise_deviation
from talex.verify import DEFAULT_THRESHOLDS, check_context, verify_sweep
from conftest import cached_contexts, three_routes

GATE = DEFAULT_THRESHOLDS["agreement"]


def draw_m_pair(r, arg, sign):
    arg *= sign
    return f"{r * math.cos(arg):.4f}", f"{r * math.sin(arg):.4f}"


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(n=st.integers(1, 3),
       r=st.floats(0.7, 1.5),
       arg=st.floats(0.15, math.pi / 2 - 0.15),
       sign=st.sampled_from((1, -1)))
def test_three_routes_agree_and_fox_route_has_the_claimed_shape(n, r, arg, sign):
    m_pair = draw_m_pair(r, arg, sign)
    try:
        results = three_routes(n, m_pair, 256)
    except DegenerateContext:  # every root of r0 at this m is flagged
        assume(False)
    assert max_pairwise_deviation(*results) <= GATE
    fox = results[0]
    report = genus_fiberedness_report(fox, n)
    assert report.monic and report.degree == 4 * n + 6
    deg = report.degree
    with mp.workprec(256):
        palin = max(abs(fox.poly.coeff(e) - fox.poly.coeff(deg - e))
                    for e in range(deg + 1))
    assert palin <= GATE
    assert max_pairwise_deviation(*three_routes(n, m_pair, 128)) <= mpf(2) ** -64


@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(n=st.integers(1, 3),
       r=st.floats(0.7, 1.5),
       arg=st.floats(0.15, math.pi / 2 - 0.15),
       sign=st.sampled_from((1, -1)))
def test_perturbed_s_breaks_three_route_agreement(n, r, arg, sign):
    """Negative control: s moved 1e-3 off a root of r0 is no representation,
    and the agreement check must see it."""
    contexts = cached_contexts(n, draw_m_pair(r, arg, sign))
    assume(contexts)
    base = contexts[0]
    with mp.workprec(base.prec):
        s = base.s + mpf("1e-3")
    ctx = build_context(n, base.m, s, prec=base.prec)
    assume(ctx.nondegenerate)
    agreement = next(c for c in check_context(ctx) if c.name == "agreement")
    assert agreement.value > GATE


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(n=st.integers(1, 6),
       log_r=st.floats(math.log(0.05), math.log(10)),
       arg=st.floats(0.15, math.pi / 2 - 0.15),
       sign=st.sampled_from((1, -1)))
def test_verify_passes_far_from_the_unit_circle(n, log_r, arg, sign):
    """Every nondegenerate root passes the whole battery for |m| from 0.05
    to 10, where identity residuals grow with |s| and a point may need a
    retry at 512 or 1024 bits."""
    report = verify_sweep([n], [draw_m_pair(math.exp(log_r), arg, sign)])
    assert report["all_passed"]
