#!/usr/bin/env python3
"""Benchmark of talex, driven in-process through its public functions.

    python3 perfbench/run.py --workload delta_cold --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  One client, one process, no extra
threads (a closed loop: the next item starts when the previous one ends).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 25

sys.path.insert(0, str(BENCH_DIR))

import mpmath  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
    "pass_ratio": "ratio", "peak_rss_mb": "MB", "agreement_digits": "digits",
}


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "src_lines": src_lines,
    }


def set_up(workload):
    """Import talex and build the exact polynomials SETUP_REPEATS times
    (fresh each time), then run the workload's own set-up once.  Returns
    (median import time + workload set-up time, in reference seconds;
    talex namespace)."""
    clock = speed.Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        tx, _, ref_s = clock.time(workloads.load_talex, workload.n_values)
        times.append(ref_s)
    _, _, extra = clock.time(workload.setup, tx)
    return statistics.median(times) + extra, tx


def run_rounds(workload, tx, rounds, tracer=None):
    """Run the given rounds; returns (outcomes, wall seconds)."""
    outcomes = []
    t0 = time.perf_counter()
    for items in rounds:
        for item in items:
            if tracer is not None:
                tracer.item = item.id
            outcomes.append(run_one(workload, tx, item))
    return outcomes, time.perf_counter() - t0


def run_one(workload, tx, item):
    t0 = time.perf_counter()
    try:
        return workload.run_item(tx, item)
    except Exception as exc:  # an item that crashes is a failed item
        print(f"item {item.id} raised {exc!r}", file=sys.stderr)
        wall = time.perf_counter() - t0
        return workloads.Outcome(False, wall, key=("raised", repr(exc)), ref_s=wall)


def timed_rounds(workload, tx, seconds):
    """Whole rounds until ``seconds`` of wall time have passed (at least
    one).  Each item's time is also read in reference seconds (see
    speed.py).  Returns (outcomes, [items per reference second of each
    round], wall seconds)."""
    stream = workload.rounds()
    workload.clock = speed.Clock()
    outcomes, rates = [], []
    t0 = time.perf_counter()
    try:
        while not outcomes or time.perf_counter() - t0 < seconds:
            done, _ = run_rounds(workload, tx, [next(stream)])
            outcomes += done
            rates.append(len(done) / sum(o.ref_s for o in done))
    finally:
        workload.clock = speed.WallClock()
    return outcomes, rates, time.perf_counter() - t0


def agreement_digits(outcomes, prec):
    """-log10 of the worst three-way deviation over the run (a deviation of
    exactly 0 counts as the working precision's unit roundoff; a run with no
    deviation at all, because every item failed, reads 0 digits)."""
    worst = max((o.agreement for o in outcomes if o.agreement is not None),
                default=mpmath.mpf(1))
    worst = max(worst, mpmath.mpf(2) ** -prec)
    return float(-mpmath.log10(worst))


def end_to_end(workload, tx, seconds, setup_s):
    outcomes, rates, elapsed = timed_rounds(workload, tx, seconds)
    failed = sum(1 for o in outcomes if not o.passed)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates),
        "item_p50_s": statistics.median(o.ref_s for o in outcomes),
        "pass_ratio": (len(outcomes) - failed) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "agreement_digits": agreement_digits(outcomes, getattr(workload, "prec", workloads.PREC)),
    }
    wall_p50 = statistics.median(o.wall_s for o in outcomes)
    print(f"{len(outcomes)} items in {len(rates)} rounds, {elapsed:.2f} s; "
          f"retries {sum(o.retries for o in outcomes)}; item p50 {wall_p50:.4g} "
          f"wall s = {metrics['item_p50_s']:.4g} reference s")
    return outcomes, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(workload, tx, args, facts):
    """The workload's fixed trace rounds untraced, then the same rounds
    traced: per-layer metrics, the tracing overhead, and a check that both
    passes agree exactly."""
    rounds = workload.trace_rounds()
    plain, plain_wall = run_rounds(workload, tx, rounds)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tx):
        outcomes, wall = run_rounds(workload, tx, rounds, tracer)
    same = [a.key == b.key for a, b in zip(plain, outcomes)]
    stdouts = [a.stdout == b.stdout for a, b in zip(plain, outcomes)
               if a.stdout is not None]
    metrics = tracing.layer_metrics(tracer, workload.root_stats)
    metrics["verify.retries"] = sum(o.retries for o in outcomes)
    metrics["cli.stdout_identical_ratio"] = (sum(stdouts) / len(stdouts)
                                             if stdouts else 1.0)
    metrics["trace.overhead_ratio"] = wall / plain_wall
    if tracer.missing:
        print("not instrumented (absent from talex): " + ", ".join(tracer.missing))
    shares = tracing.self_shares(tracer, wall)
    print(f"traced {len(outcomes)} items in {wall:.2f} s "
          f"(untraced {plain_wall:.2f} s); self time by layer:")
    for name, self_s, share in shares[:8]:
        print(f"  {name:40s} {self_s:9.3f} s  {100 * share:5.1f} %")
    if shares:
        print(f"dominant self-time layer: {shares[0][0]} "
              f"({100 * shares[0][2]:.1f} % of traced wall)")
    modules = {}
    for name, _, share in shares:
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0) + share
    print("self time by module: " + ", ".join(
        f"{mod} {100 * share:.1f} %"
        for mod, share in sorted(modules.items(), key=lambda x: -x[1])))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"machine": facts, "workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start_ns", "end_ns", "parent",
                                   "item", "layer"],
                   "spans": tracer.spans, "counts": dict(tracer.counts),
                   "self_shares": shares}, fh)
    failed = sum(1 for o in outcomes if not o.passed)
    units = {spec["name"]: spec["unit"] for spec in benchmark_spec()["per_layer"]}
    return outcomes, failed, all(same), {k: (v, units[k]) for k, v in metrics.items()}


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name, seed):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.DeltaCold:
        ref_path = BENCH_DIR / "reference_delta_cold.json"
        with open(ref_path) as fh:
            ref = json.load(fh)
        return cls(seed, ref["items"] if seed == ref["seed"] else None)
    return cls(seed)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "talex" / "__init__.py").is_file():
        print(f"error: no talex sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    workload = make_workload(args.workload, args.seed)
    setup_s, tx = set_up(workload)
    if args.trace:
        outcomes, failed, consistent, metrics = traced(workload, tx, args, facts)
        if not consistent:
            print("traced and untraced passes differ", file=sys.stderr)
    else:
        outcomes, failed, metrics = end_to_end(workload, tx, args.seconds, setup_s)
        consistent = True
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
