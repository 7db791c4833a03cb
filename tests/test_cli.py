"""The command-line surface: exit codes, output formats, determinism."""

import dataclasses
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
from talex.errors import NonConvergence
from talex.pretzel import BivarPoly, build_context
from conftest import STD_M


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
    for, and the division meets it at every precision the CLI accepts; the
    Fox route's genus report reads fibered there."""
    code, out, err = run(capsys, "delta", "--n", "2", "--m", "0.9,-0.2",
                         "--method", method, "--precision-bits", str(prec),
                         "--format", "json")
    assert code == 0, err
    if method == "all":
        dev = mpf(json.loads(out)["max_pairwise_deviation"])
        assert dev <= mpf(2) ** -(prec // 2)
        assert json.loads(out)["fibered_consistent"] is True


@pytest.mark.parametrize("prec", (64, 72))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_low_precision_delta_is_fibered_consistent(capsys, n, prec):
    """At 64 and 72 bits the Fox route's end coefficients miss 1 by more
    than ``MONIC_TOL`` = 1e-20 (about 4e-18 at 64 bits) but within the
    2^-(prec/2) the precision resolves, so the report reads monic."""
    code, out, err = run(capsys, "delta", "--n", str(n), "--m", "1.2,0.4",
                         "--precision-bits", str(prec), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["fibered_consistent"] is True


def test_delta_csv(capsys):
    code, out, _ = run(capsys, "delta", "--n", "1", "--m", "1.2,0.4",
                       "--method", "theorem", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "exp,re,im"


def _delta_lines(capsys, argv, fmt):
    code, out, err = run(capsys, "delta", *argv, "--format", fmt)
    assert code == 0, err
    return out.splitlines()


@pytest.mark.parametrize("argv", [
    ("--n", str(n), "--m", ",".join(m), "--method", "all")
    for n in (1, 2, 3) for m in STD_M
] + [
    ("--n", "2", "--m", ",".join(STD_M[0]), "--method", method)
    for method in ("fox", "theorem", "prop32")
], ids=lambda argv: "-".join(argv[1::2]))
def test_delta_formats_carry_the_json_strings(capsys, argv):
    """CSV rows and text lines print exactly the JSON payload's strings:
    one payload per route, rendered three ways, headers included."""
    payload = json.loads("\n".join(_delta_lines(capsys, argv, "json")))
    csv, text = _delta_lines(capsys, argv, "csv"), _delta_lines(capsys, argv, "text")
    idx = payload["root_index"]
    if "methods" in payload:
        n, methods = payload["n"], payload["methods"]
        assert list(methods) == ["fox", "theorem", "prop32"]
        assert csv == ["method,exp,re,im"] + [
            f"{name},{c['exp']},{c['re']},{c['im']}"
            for name, method in methods.items() for c in method["coefficients"]]
        shown = methods["theorem"]
        assert text[0] == (f"Delta_(K_{n}) at root #{idx}, all methods; max pairwise "
                           f"deviation {payload['max_pairwise_deviation']}")
        assert text[-1].startswith(f"degree {4 * n + 6}, genus {payload['genus']}, ")
        body = text[1:-1]
    else:
        shown, unit = payload, payload["unit"]
        assert list(payload)[-1] == "root_index"
        assert csv == ["exp,re,im"] + [f"{c['exp']},{c['re']},{c['im']}"
                                       for c in payload["coefficients"]]
        assert text[0] == (f"Delta_(K_{payload['n']}) via {payload['method']} at root "
                           f"#{idx} (unit sign {unit['sign']}, shift {unit['shift']}):")
        body = text[1:]
    assert body == [f"  t^{c['exp']:<3d} {c['re']}  {c['im']}i"
                    for c in shown["coefficients"]]


# -- injected failure paths (exit 2, 3, 5) ----------------------------------


def all_flagged_roots(n, m, prec=256, **kw):
    ctx = build_context(n, m, 1, prec, residual=mpf(0))
    return [ctx, ctx]


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
    isolated at any precision: the refusal gives the solver's reason (here
    no seed converged, at 64 bits nor at the working precision) and does
    not suggest more bits."""
    start = time.perf_counter()
    code, out, err = run(capsys, "roots", *argv)
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_NONCONVERGENCE
    assert out == ""
    assert "non-convergence" in err
    assert "seeds of the" in err and "did not converge" in err
    assert "disjoint discs" not in err
    assert "retry" not in err and "higher precision" not in err


def test_inexact_division_exit(capsys, monkeypatch):
    """A Fox result whose remainder is above 2^-(prec/2) is refused with
    exit 5, by every method that prints it."""
    wada = cli.wada_polynomial

    def inexact(rep, k):
        return dataclasses.replace(wada(rep, k), remainder=mpf("1e-3"))
    monkeypatch.setattr(cli, "wada_polynomial", inexact)
    for method in ("fox", "all"):
        code, out, err = run(capsys, "delta", "--n", "2", "--m", "1.2,0.4",
                             "--method", method)
        assert code == cli.EXIT_INEXACT
        assert out == ""
        assert "inexact division: relative remainder" in err
        assert "exceeds tolerance" in err


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


def test_verify_retry_without_a_nondegenerate_root_reports_the_failure(
        capsys, monkeypatch):
    """A retry whose re-solve flags every root stops retrying: the entry
    stays failed and is reported (exit 1), not taken for a usage error, and
    its ``retried_at`` lists the precision tried."""
    solve = verify.solve_s_roots

    def flagged_above_256(n, m, prec):
        roots = solve(n, m, prec)
        if prec == 256:
            return roots
        return [dataclasses.replace(r, flags=frozenset({"s_one"})) for r in roots]

    monkeypatch.setattr(verify, "solve_s_roots", flagged_above_256)
    # 1e-100 fails at 256 bits (agreement ~1e-70)
    monkeypatch.setitem(verify.DEFAULT_THRESHOLDS, "agreement", mpf("1e-100"))
    code, out, err = run(capsys, "verify", "--n-range", "1..1", "--m", "1.2,0.4")
    assert code == cli.EXIT_VERIFY_FAILED
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "FAILURES present"
    assert lines[:-1] and all(line.startswith("FAIL ") and
                              line.endswith("failing: agreement")
                              for line in lines[:-1])
    report = verify.verify_sweep([1], [("1.2", "0.4")])
    assert report["entries"] and not report["all_passed"]
    assert all(e["retried_at"] == [512] for e in report["entries"])


def test_verify_refused_retry_reports_the_point_failed(capsys, monkeypatch):
    """At n = 3, m = 0.0099+0.0015i, root #21 (|s| ~ 9,973) fails its checks
    at 256 bits, and the retry's 512-bit re-solve is refused
    (``NonConvergence``).  As when a re-solve flags every root, the point
    stays failed, the whole report prints, with exit 1, and the entry's
    ``retried_at`` lists the refused 512 bits; a refused base solve (n = 4
    there) still exits 3."""
    refused = []
    solve = verify.solve_s_roots

    def spy(n, m, prec):
        try:
            return solve(n, m, prec)
        except NonConvergence:
            refused.append((n, prec))
            raise

    monkeypatch.setattr(verify, "solve_s_roots", spy)
    code, out, err = run(capsys, "verify", "--n-range", "3..3", "--m", "0.0099,0.0015")
    assert code == cli.EXIT_VERIFY_FAILED
    assert err == "" and refused == [(3, 512)]
    lines = out.splitlines()
    assert lines[-1] == "FAILURES present"
    assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 11 + ["FAIL"]
    assert "root#21  failing: " in lines[-2]
    code, out, _ = run(capsys, "verify", "--n-range", "3..3", "--m", "0.0099,0.0015",
                       "--format", "json")
    assert code == cli.EXIT_VERIFY_FAILED and refused == [(3, 512)] * 2
    assert [(e["root_index"], e["retried_at"]) for e in json.loads(out)["entries"]
            if e["retried_at"]] == [(21, [512])]
    code, out, err = run(capsys, "verify", "--n-range", "4..4", "--m", "0.0099,0.0015")
    assert code == cli.EXIT_NONCONVERGENCE
    assert out == "" and "non-convergence" in err
    assert refused[2:] == [(4, 256)]


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
