"""Self-tests of the benchmark harness at tiny size (n in {1, 2}).

    python3 -m pytest perfbench/tests -q
"""

import cmath
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TinyDelta(workloads.DeltaCold):
    n_values = (1, 2)


class TinyBattery(workloads.CheckBattery):
    n_values = (1,)


class TinyVerify(workloads.Verify512):
    n_values = (1,)


class PerturbedVerify(TinyVerify):
    """The negative control: every root offset by 1e-3 must fail."""

    def argv(self, item):
        return super().argv(item) + ["--inject-perturbation", "1e-3"]


@pytest.fixture(scope="module")
def tx():
    return workloads.load_talex((1, 2))


def first_rounds(workload, k=3):
    stream = workload.rounds()
    return [next(stream) for _ in range(k)]


@pytest.mark.parametrize("cls", [TinyDelta, TinyVerify])
def test_seed_fixes_the_item_list(cls):
    assert first_rounds(cls(7)) == first_rounds(cls(7))
    assert first_rounds(cls(7)) != first_rounds(cls(8))
    items = [i for r in first_rounds(cls(7), 10) for i in r]
    assert len({(i.n, i.m) for i in items}) == len(items)


def test_seed_fixes_the_battery_inputs():
    assert TinyBattery(7).m == TinyBattery(7).m
    assert TinyBattery(7).m != TinyBattery(8).m


def test_m_stays_in_the_sector():
    rng = random.Random(1)
    for _ in range(1000):
        z = complex(*map(float, workloads.draw_m(rng)))
        assert 0.699 <= abs(z) <= 1.501
        assert 0.149 <= abs(cmath.phase(z)) <= cmath.pi / 2 - 0.149


@pytest.mark.parametrize("cls", [TinyDelta, TinyBattery, TinyVerify])
def test_every_workload_path_runs_and_passes(cls, tx):
    workload = cls(3)
    workload.setup(tx)
    outcomes, failed, metrics = run.end_to_end(workload, tx, 0, 0.01)
    assert outcomes and failed == 0
    names = {spec["name"] for spec in run.benchmark_spec()["end_to_end"]}
    assert set(metrics) == names
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["agreement_digits"][0] >= 60


def test_known_bad_item_is_counted_as_failed(tx):
    workload = PerturbedVerify(3)
    outcomes, failed, metrics = run.end_to_end(workload, tx, 0, 0.01)
    assert failed == len(outcomes) == 1
    assert metrics["pass_ratio"][0] == 0


def test_reference_mismatch_fails_the_item(tx):
    workload = TinyDelta(3)
    item = next(workload.rounds())[0]
    good = workload.run_item(tx, item)
    assert good.passed
    ref = {"methods": {"fox": good.payload["methods"]["fox"]["coefficients"]}}
    bent = json.loads(json.dumps(ref))
    bent["methods"]["fox"][3]["re"] = "1e-40"
    workload.reference = {item.id: ref}
    assert workload.run_item(tx, item).passed
    workload.reference = {item.id: bent}
    assert not workload.run_item(tx, item).passed


def test_stored_reference_matches():
    """The first item of the default seed against the stored coefficients."""
    workload = run.make_workload("delta_cold", workloads.DEFAULT_SEED)
    item = next(workload.rounds())[0]
    assert item.id in workload.reference
    tx = workloads.load_talex((item.n,))
    assert workload.run_item(tx, item).passed


@pytest.mark.parametrize("cls", [TinyDelta, TinyBattery])
def test_spans_self_times_fit_in_item_wall(cls, tx):
    workload = cls(5)
    workload.setup(tx)
    round_ = workload.trace_rounds()[0]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tx):
        outcomes = run.run_rounds(workload, tx, [round_], tracer)[0]
    assert not tracer.missing
    selfs = tracing.self_times(tracer.spans)
    assert selfs and all(v >= 0 for v in selfs.values())
    for item, outcome in zip(round_, outcomes):
        total = sum(v for sid, v in selfs.items() if tracer.spans[sid][4] == item.id)
        assert 0 < total <= outcome.wall_s
    assert not hasattr(tx.verify.check_context, "__wrapped__")


def test_traced_pass_matches_untraced_and_reports_every_layer(tx, capsys):
    workload = TinyBattery(5)
    workload.setup(tx)
    args = type("Args", (), {"workload": "selftest", "seed": 5})()
    outcomes, failed, consistent, metrics = run.traced(workload, tx, args, {})
    assert consistent and failed == 0
    assert set(metrics) == {spec["name"] for spec in run.benchmark_spec()["per_layer"]}
    assert metrics["verify.check_context.calls"][0] == len(outcomes)
    assert metrics["fox.wada_numerator.busy_s.three"][0] > 0
    assert metrics["pretzel.solve_s_roots.calls"][0] == 0
    assert "dominant self-time layer" in capsys.readouterr().out


def test_clock_leaves_its_probes_out_of_the_wall_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    clock = speed.Clock()
    handler = signal.getsignal(signal.SIGALRM)
    result, wall, ref = clock.time(busy, 0.5)
    assert result == "done"
    assert clock.spent > 0                     # it sampled during the call
    assert abs(wall + clock.spent - 0.5) < 0.05
    assert ref > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "delta_cold", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
