"""The precision contract: a function given a working precision computes at
exactly that precision, whatever mpmath's ambient precision is.  Every test
here runs at pytest's ambient ``mp.prec`` of 53 bits."""

import pytest
from mpmath import mp, mpc, mpf

from talex import build_context, cli, solve_s_roots
from talex.errors import NonConvergence
from talex.pretzel import MAX_PREC, alpha_polynomial
from talex.laurent import coefficient_deviation
from conftest import STD_M, m_at, three_routes


def test_routes_independent_of_ambient_precision():
    assert mp.prec == 53
    for low, high in zip(three_routes(2, STD_M[0], 256),
                         three_routes(2, STD_M[0], 512)):
        assert low.poly.prec == 256 and high.poly.prec == 512
        assert coefficient_deviation(low.poly, high.poly) <= mpf(2) ** -200


def test_context_computes_at_its_own_precision():
    n = 2
    m, s = m_at("1.2", "0.4", 128), m_at("0.7", "0.5", 128)
    ctx = build_context(n, m, s, prec=128, strict=False)
    with mp.workprec(128):
        narrow, _ = alpha_polynomial(n).eval(m, s)
    with mp.workprec(256):
        wide, _ = alpha_polynomial(n).eval(m, s)
    assert ctx.alpha == narrow
    assert ctx.alpha != wide


def test_precision_below_minimum_rejected():
    m = m_at("1.2", "0.4")
    for prec in (32, MAX_PREC + 1):
        with pytest.raises(ValueError):
            solve_s_roots(2, m, prec)
        with pytest.raises(ValueError):
            build_context(2, m, m_at("0.7", "0.5"), prec=prec)


def test_cli_parses_m_at_working_precision(capsys, monkeypatch):
    seen = []

    def spy(n, m, prec):
        seen.append((m, prec))
        raise NonConvergence("stop after parsing")

    monkeypatch.setattr(cli, "solve_s_roots", spy)
    code = cli.main(["roots", "--n", "1", "--m", "1.2,0.4",
                     "--precision-bits", "512"])
    capsys.readouterr()
    assert code == cli.EXIT_NONCONVERGENCE
    [(m, prec)] = seen
    with mp.workprec(512):
        want = mpc(mpf("1.2"), mpf("0.4"))
    assert prec == 512
    assert m == want
    assert m != mpc(mpf("1.2"), mpf("0.4"))  # the 53-bit parse differs
