"""The command-line surface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from talex import cli, pretzel, verify
from talex.closed_form import genus_fiberedness_report
from talex.errors import InexactDivision, NonConvergence
from talex.pretzel import BivarPoly, RootRecord


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- usage errors (exit 64) -------------------------------------------------


@pytest.mark.parametrize("argv", (
    ("bogus",),
    ("roots", "--n", "0", "--m", "1.2,0.4"),
    ("roots", "--n", "2", "--m", "0,0"),
    ("roots", "--n", "2", "--m", "notanumber"),
    ("roots", "--n", "2"),
    ("delta", "--n", "2", "--m", "1.2,0.4", "--precision-bits", "16"),
    ("verify", "--n-range", "5..2"),
    ("delta", "--n", "1", "--m", "nan,0", "--method", "theorem"),
    ("roots", "--n", "2", "--m", "inf,0"),
    ("roots", "--n", "2", "--m", "0.5,nan"),
    ("delta", "--n", "2", "--m", "1.2,inf"),
    ("verify", "--n-range", "1..1", "--m", "nan,nan"),
    ("verify", "--n-range", "1..1", "--m", "1.2,0.4", "--inject-perturbation", "inf"),
    ("verify", "--n-range", "1..1", "--m", "1.2,0.4", "--inject-perturbation", "nan"),
    ("roots", "--n", "1", "--m", "-abc,0"),
    ("roots", "--n", "2", "--m", "abc,0"),
    ("verify", "--n-range", "1-3"),
    ("roots", "--n", "100000000000", "--m", "1.2,0.4"),
    ("delta", "--n", "17", "--m", "1.2,0.4"),
    ("verify", "--n-range", "1..17"),
    ("roots", "--n", "2", "--m", "1.2,0.4", "--precision-bits", "4097"),
))
def test_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == cli.EXIT_USAGE


def _must_not_run(*args, **kwargs):
    raise AssertionError("reached past the command-line checks")


def test_n_range_refused_before_the_sweep(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_sweep", _must_not_run)
    code, _, err = run(capsys, "verify", "--n-range", "1..17")
    assert code == cli.EXIT_USAGE
    assert f"n <= {pretzel.MAX_N}" in err


def test_precision_refused_before_m_is_parsed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "m_at", _must_not_run)
    code, _, err = run(capsys, "roots", "--n", "1", "--m", "1.2,0.4",
                       "--precision-bits", "1000000000000")
    assert code == cli.EXIT_USAGE
    assert "precision_bits" in err


def test_verify_sweep_checks_every_n_first(monkeypatch):
    monkeypatch.setattr(verify, "solve_s_roots", _must_not_run)
    with pytest.raises(ValueError, match="n <= "):
        verify.verify_sweep([1, pretzel.MAX_N + 1], [("1.2", "0.4")])


def test_root_index_out_of_range(capsys):
    code, _, err = run(capsys, "delta", "--n", "2", "--m", "1.2,0.4",
                       "--root-index", "999")
    assert code == cli.EXIT_USAGE
    assert "out of range" in err


# -- roots ------------------------------------------------------------------


def test_roots_text_and_csv(capsys):
    code, out, _ = run(capsys, "roots", "--n", "2", "--m", "1.2,0.4")
    assert code == 0
    assert "s_one" in out and "residual" in out
    code, out, _ = run(capsys, "roots", "--n", "2", "--m", "1.2,0.4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,re,im,residual,flags"


def test_roots_json_schema(capsys):
    code, out, _ = run(capsys, "roots", "--n", "1", "--m", "0.9,-0.2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1 and data["m"] == ["0.9", "-0.2"]
    assert {"index", "s", "residual", "flags"} <= set(data["roots"][0])


# -- delta ------------------------------------------------------------------


def test_delta_json_schema_and_determinism(capsys):
    argv = ("delta", "--n", "2", "--m", "1.2,0.4", "--method", "theorem",
            "--format", "json")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out1)
    assert set(data) >= {"n", "m", "s", "flags", "method", "unit",
                         "coefficients", "root_index"}
    assert data["unit"] == {"sign": 1, "shift": 0}
    assert data["coefficients"][0] == {
        "exp": 0, "re": data["coefficients"][0]["re"],
        "im": data["coefficients"][0]["im"]}
    exps = [c["exp"] for c in data["coefficients"]]
    assert exps[0] == 0 and exps[-1] == 14
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2  # byte-identical across runs


def test_delta_all_methods_agree(capsys):
    code, out, _ = run(capsys, "delta", "--n", "1", "--m", "1.2,0.4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data["methods"]) == {"fox", "theorem", "prop32"}
    assert mpf(data["max_pairwise_deviation"]) < mpf("1e-40")
    assert data["fibered_consistent"] is True
    assert data["genus"] == 3


def test_delta_all_genus_from_fox_route(capsys, monkeypatch):
    reported = []

    def spy(result, n):
        reported.append(result)
        return genus_fiberedness_report(result, n)

    monkeypatch.setattr(cli, "genus_fiberedness_report", spy)
    code, out, _ = run(capsys, "delta", "--n", "2", "--m", "1.2,0.4",
                       "--format", "json")
    assert code == 0
    [result] = reported
    assert result.method == "fox"
    fox = genus_fiberedness_report(result, 2)
    data = json.loads(out)
    assert (data["genus"], data["fibered_consistent"]) == (
        fox.genus, fox.fibered_consistent)


def test_delta_degenerate_root_index(capsys):
    code, out, err = run(capsys, "roots", "--n", "2", "--m", "1.2,0.4",
                         "--format", "json")
    flagged = next(r["index"] for r in json.loads(out)["roots"] if r["flags"])
    code, _, err = run(capsys, "delta", "--n", "2", "--m", "1.2,0.4",
                       "--root-index", str(flagged))
    assert code == cli.EXIT_DEGENERATE
    assert "degenerate" in err


@pytest.mark.parametrize("method", ("fox", "all"))
@pytest.mark.parametrize("prec", (64, 96, 128))
def test_low_precision_fox_division(capsys, prec, method):
    """The Fox division tolerance is 2^-(prec/2) of the precision asked
    for, and the division meets it at every precision the CLI accepts."""
    code, out, err = run(capsys, "delta", "--n", "2", "--m", "0.9,-0.2",
                         "--method", method, "--precision-bits", str(prec),
                         "--format", "json")
    assert code == 0, err
    if method == "all":
        dev = mpf(json.loads(out)["max_pairwise_deviation"])
        assert dev <= mpf(2) ** -(prec // 2)


def test_delta_csv(capsys):
    code, out, _ = run(capsys, "delta", "--n", "1", "--m", "1.2,0.4",
                       "--method", "theorem", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "exp,re,im"


# -- injected failure paths (exit 2, 3, 5) ----------------------------------


def all_flagged_roots(n, m, prec=256, **kw):
    rec = RootRecord(mpc(1), mpf(0), frozenset({"s_one"}))
    return [rec, rec]


def test_no_nondegenerate_root(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_s_roots", all_flagged_roots)
    code, _, err = run(capsys, "delta", "--n", "2", "--m", "1.2,0.4")
    assert code == cli.EXIT_NO_ROOT
    assert "no nondegenerate root" in err


def test_nonconvergence_exit(capsys, monkeypatch):
    def explode(*a, **kw):
        raise NonConvergence("did not settle")
    monkeypatch.setattr(cli, "solve_s_roots", explode)
    code, _, err = run(capsys, "roots", "--n", "2", "--m", "1.2,0.4")
    assert code == cli.EXIT_NONCONVERGENCE
    assert "non-convergence" in err


def test_uncertifiable_roots_exit(capsys, monkeypatch):
    # a cofactor with a double root: its inclusion discs cannot be disjoint
    double = BivarPoly({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    monkeypatch.setattr(pretzel, "r0_cofactor", lambda n: (0, double))
    code, _, err = run(capsys, "roots", "--n", "2", "--m", "1.2,0.4")
    assert code == cli.EXIT_NONCONVERGENCE
    assert "non-convergence" in err


@pytest.mark.parametrize("argv", (
    ("--n", "2", "--m", "0,1"),
    ("--n", "2", "--m", "0,-1"),
    ("--n", "1", "--m", "0,1"),
    ("--n", "2", "--m", "0,1", "--precision-bits", "1024"),
))
def test_repeated_roots_at_m_i_exit_without_promising_a_retry(capsys, argv):
    """At m = +-i the cofactor has a squared factor
    (``test_cofactor_has_a_repeated_factor_at_m_i``), so its roots cannot be
    isolated at any precision: the refusal gives the solver's reason and
    does not suggest more bits."""
    start = time.perf_counter()
    code, out, err = run(capsys, "roots", *argv)
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_NONCONVERGENCE
    assert out == ""
    assert "non-convergence" in err and "disjoint discs" in err
    assert "retry" not in err and "higher precision" not in err


def test_inexact_division_exit(capsys, monkeypatch):
    def explode(*a, **kw):
        raise InexactDivision("remainder too large")
    monkeypatch.setattr(cli, "wada_polynomial", explode)
    code, _, err = run(capsys, "delta", "--n", "2", "--m", "1.2,0.4",
                       "--method", "fox")
    assert code == cli.EXIT_INEXACT
    assert "inexact division" in err


# -- verify -----------------------------------------------------------------


def test_verify_small_range_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-range", "2..2",
                       "--m", "1.2,0.4")
    assert code == 0
    assert "all passed" in out
    assert "FAIL" not in out


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--n-range", "2..2",
                       "--m", "1.2,0.4", "--inject-perturbation", "1e-3")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAILURES present" in out
    assert "failing:" in out


def test_verify_retry_parses_m_at_the_retry_precision(monkeypatch):
    """A retried point solves for the decimal m parsed at the retry
    precision, not for its 256-bit rounding."""
    calls = []
    solve = verify.solve_s_roots

    def spy(n, m, prec):
        calls.append((m, prec))
        return solve(n, m, prec)

    monkeypatch.setattr(verify, "solve_s_roots", spy)
    # 1e-100 fails at 256 bits (agreement ~1e-70) and passes at 512
    monkeypatch.setitem(verify.DEFAULT_THRESHOLDS, "agreement", mpf("1e-100"))
    report = verify.verify_sweep([1], [("1.2", "0.4")], prec=256)
    assert report["all_passed"] and report["entries"]
    assert all(e["retried_at"] == [512] for e in report["entries"])
    with mp.workprec(512):
        m512 = mpc(mpf("1.2"), mpf("0.4"))
    with mp.workprec(256):
        m256 = mpc(mpf("1.2"), mpf("0.4"))
    assert m512 != m256
    assert [m for m, prec in calls if prec == 512] == [m512] * len(report["entries"])
    assert [m for m, prec in calls if prec == 256] == [m256]


def test_verify_retry_stops_at_the_ceiling(monkeypatch):
    """A retry doubles the precision but never passes MAX_RETRY_PREC: a
    768-bit run retries at 1024 bits, not at 1536."""
    # 1e-260 fails at 768 bits (agreement ~4e-230) and passes at 1024
    monkeypatch.setitem(verify.DEFAULT_THRESHOLDS, "agreement", mpf("1e-260"))
    report = verify.verify_sweep([1], [("1.2", "0.4")], prec=768)
    assert report["entries"]
    assert all(e["retried_at"] == [1024] for e in report["entries"])


@pytest.mark.parametrize("n, m, root", (
    # r1, zeta1 and zeta2 grow like |s|^degree (s ~ 98+20i) past their
    # absolute gates at 256 bits
    (3, "10,1", 21),
    # the three-generator division loses more bits than its 256-bit
    # tolerance allows, so independence reads +inf
    (5, "0.0494,0.0075", 20),
))
def test_verify_far_from_the_unit_circle_passes_after_one_retry(capsys, n, m, root):
    """A correct point whose checks fail at 256 bits only for want of
    precision passes at 512, and no other root is retried."""
    code, out, _ = run(capsys, "verify", "--n-range", f"{n}..{n}", "--m", m,
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert [(e["root_index"], e["retried_at"]) for e in report["entries"]
            if e["retried_at"]] == [(root, [512])]


def test_verify_wrong_identity_fails_at_every_precision(monkeypatch):
    """An O(1) identity residual does not shrink with precision: it is
    retried up to MAX_RETRY_PREC and still reported as failing."""
    monkeypatch.setattr(verify, "zeta_vanishing", lambda ctx: (1, 1))
    report = verify.verify_sweep([1], [("1.2", "0.4")])
    assert report["entries"] and not report["all_passed"]
    for e in report["entries"]:
        assert not e["passed"]
        assert e["retried_at"] == [512, 1024]
        assert {c["name"] for c in e["checks"] if not c["passed"]} == {"zeta1", "zeta2"}


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n-range", "1..1",
                       "--m", "0.9,-0.2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    entry = data["entries"][0]
    assert {"n", "m", "root_index", "s", "flags", "residual", "checks",
            "passed"} <= set(entry)
    assert all(c["passed"] for c in entry["checks"])


@pytest.mark.parametrize("m", ("1,0", "-1,0"))
def test_verify_at_the_parabolic_meridian(capsys, m):
    """m = +-1 gives the holonomy representation, the one the paper's
    corollary on the Dunfield-Friedl-Jackson conjecture is about."""
    code, out, _ = run(capsys, "verify", "--n-range", "1..4", "--m", m,
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert len(report["entries"]) == 24
    assert not any(e["retried_at"] for e in report["entries"])


# -- the argument vector and the output stream ------------------------------


@pytest.mark.parametrize("m", ("-1,0", "-0.9,-0.2"))
def test_dash_leading_m_is_a_value(capsys, m):
    code, out, _ = run(capsys, "roots", "--n", "1", "--m", m)
    assert code == 0
    assert run(capsys, "roots", "--n", "1", f"--m={m}")[:2] == (code, out)


def test_dash_leading_perturbation_is_a_value(capsys):
    """An exponent-form negative EPS is a value too, not an option."""
    argv = ("verify", "--n-range", "1..1", "--m", "1.2,0.4", "--format", "json")
    code, out, _ = run(capsys, *argv, "--inject-perturbation", "-1e-3")
    assert code == 1
    assert run(capsys, *argv, "--inject-perturbation=-1e-3")[:2] == (code, out)


def test_closed_reader_exits_74_without_traceback():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    read_fd, write_fd = os.pipe()
    # a one-page pipe fills before the 7 kB report is written, so a write
    # is still pending when the reader closes after the first line
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "talex.cli", "delta", "--n", "2", "--m", "1.2,0.4",
         "--method", "all", "--format", "json"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb", buffering=0) as reader:
        first = b""
        while not first.endswith(b"\n"):
            byte = reader.read(1)
            if not byte:
                break
            first += byte
    _, err = proc.communicate(timeout=120)
    assert first == b"{\n"
    assert proc.returncode == cli.EXIT_IOERR
    assert err == b""
