"""The benchmark's workloads: seeded inputs, set-up, and one gated runner
per item.

Every workload draws its meridian eigenvalues m from the seed alone and
hands talex nothing else.  Items come in rounds; a run always finishes the
round it is in, so each run sees the same mix of n.

* ``delta_cold``    one ``talex delta --method all`` per item, a fresh
  (n, m) every time: root solving dominates and nothing repeats.
* ``check_battery`` ``build_context`` + ``check_context(independence=True)``
  on every nondegenerate root of one (n, m) per n; the roots are solved in
  set-up, so the timed phase never calls the solver.
* ``verify_512``    one single-cell ``talex verify`` at 512 bits per item,
  a fresh (n, m) every time.
"""

import contextlib
import importlib
import io
import json
import math
import random
import sys
import types
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpc, mpf

import speed

PREC = 256
GATE = mpf("1e-20")            # DEFAULT_THRESHOLDS["agreement"] in talex.verify
REFERENCE_TOL = mpf("1e-50")   # between the ~1e-70 noise floor and the gate
DEFAULT_SEED = 0

TALEX_MODULES = ("cli", "verify", "pretzel", "fox", "laurent", "closed_form",
                 "scalars")


@dataclass(frozen=True)
class Item:
    id: str
    n: int
    m: tuple
    root_index: int = None


@dataclass
class Outcome:
    """What one item produced; ``key`` must repeat exactly between the
    untraced and the traced pass."""

    passed: bool
    wall_s: float
    agreement: object = None     # worst three-way deviation, an mpf
    stdout: str = None
    retries: int = 0
    key: tuple = ()
    payload: dict = field(default=None, repr=False)
    ref_s: float = None          # the item's time in reference seconds


def draw_m(rng):
    """m uniform (by area) in 0.7 <= |m| <= 1.5, 0.15 <= |arg m| <= pi/2 - 0.15,
    as 4-decimal strings."""
    r = math.sqrt(rng.uniform(0.7 ** 2, 1.5 ** 2))
    arg = rng.uniform(0.15, math.pi / 2 - 0.15) * rng.choice((1, -1))
    return f"{r * math.cos(arg):.4f}", f"{r * math.sin(arg):.4f}"


def load_talex(n_values):
    """Import talex afresh and build the exact integer polynomials for every
    n in ``n_values``; returns a namespace of its modules (``modules`` lists
    every talex module of this import, the package included)."""
    for key in [k for k in sys.modules if k == "talex" or k.startswith("talex.")]:
        del sys.modules[key]
    tx = types.SimpleNamespace(mpmath=mpmath)
    for name in TALEX_MODULES:
        try:
            setattr(tx, name, importlib.import_module("talex." + name))
        except ModuleNotFoundError:
            setattr(tx, name, None)
    tx.modules = [mod for key, mod in sys.modules.items()
                  if key == "talex" or key.startswith("talex.")]
    p = tx.pretzel
    for n in n_values:
        for build in (p.r0_polynomial, p.alpha_polynomial, p.beta_polynomial,
                      p.h_polynomial, p.eta1_polynomial, p.eta2_polynomial,
                      p.r1_polynomial):
            build(n)
    return tx


def make_m(tx, re_str, im_str, prec=PREC):
    """m as the talex library takes it: a ``Scalar`` while talex has one,
    a plain ``mpc`` at ``prec`` otherwise (the ROADMAP plans to remove
    ``Scalar``, and the benchmark must keep running across that change)."""
    if tx.scalars is not None:
        return tx.scalars.Scalar.from_strings(re_str, im_str, prec=prec)
    with mp.workprec(prec):
        return mpc(mpf(re_str), mpf(im_str))


def run_cli(tx, argv, clock):
    """(exit code, stdout, wall seconds, reference seconds) of one
    in-process ``talex`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, wall, ref = clock.time(tx.cli.main, argv)
    return code, out.getvalue(), wall, ref


def _c(entry):
    return mpc(mpf(entry["re"]), mpf(entry["im"]))


def delta_gate(payload, n):
    """The delta_cold gate, recomputed from the JSON: the three routes agree
    within 1e-20 and the Fox-route polynomial is monic, of degree 4n+6 and
    palindromic (the ``genus`` field is not trusted)."""
    with mp.workprec(PREC):
        if mpf(payload["max_pairwise_deviation"]) > GATE:
            return False
        coeffs = {c["exp"]: _c(c) for c in payload["methods"]["fox"]["coefficients"]}
        deg = 4 * n + 6
        if not coeffs or min(coeffs) != 0 or max(coeffs) != deg:
            return False
        if abs(coeffs[0] - 1) > GATE or abs(coeffs[deg] - 1) > GATE:
            return False
        zero = mpc(0)
        return all(abs(coeffs.get(e, zero) - coeffs.get(deg - e, zero)) <= GATE
                   for e in range(deg + 1))


def reference_deviation(payload, ref):
    """Largest relative coefficient deviation from a stored reference item,
    over all three methods."""
    worst = mpf(0)
    with mp.workprec(PREC):
        for method, coeffs in ref["methods"].items():
            got = {c["exp"]: _c(c) for c in payload["methods"][method]["coefficients"]}
            want = {c["exp"]: _c(c) for c in coeffs}
            if set(got) != set(want):
                return mpf("inf")
            for e, w in want.items():
                worst = max(worst, abs(got[e] - w) / max(mpf(1), abs(w)))
    return worst


class Workload:
    """Base: a seeded item stream in rounds, a set-up and a gated runner.
    ``clock`` times the talex calls of each item (see speed.py)."""

    n_values = ()

    def __init__(self, seed):
        self.seed = seed
        self.root_stats = None
        self.clock = speed.WallClock()

    def rng(self):
        """A fresh generator: the same seed always yields the same inputs."""
        return random.Random(f"talex-bench:{self.name}:{self.seed}")

    def setup(self, tx):
        """Extra set-up after the import."""

    def rounds(self):
        """Endless generator of rounds (lists of Items)."""
        raise NotImplementedError

    def trace_rounds(self):
        """The fixed rounds a traced run replays: the first one."""
        return [next(self.rounds())]

    def run_item(self, tx, item):
        raise NotImplementedError


class _FreshCells(Workload):
    """One fresh (n, m) per item, one item per n in each round."""

    def rounds(self):
        rng, seen = self.rng(), set()
        r = 0
        while True:
            items = []
            for n in self.n_values:
                m = draw_m(rng)
                while (n, m) in seen:
                    m = draw_m(rng)
                seen.add((n, m))
                items.append(Item(f"r{r}:n{n}:m{m[0]},{m[1]}", n, m))
            yield items
            r += 1


class DeltaCold(_FreshCells):
    name = "delta_cold"
    n_values = (1, 2, 3)

    def __init__(self, seed, reference=None):
        super().__init__(seed)
        self.reference = reference or {}

    def argv(self, item):
        return ["delta", "--n", str(item.n), "--m", ",".join(item.m),
                "--method", "all", "--format", "json"]

    def run_item(self, tx, item):
        code, stdout, wall, ref_s = run_cli(tx, self.argv(item), self.clock)
        payload = json.loads(stdout) if code == 0 else None
        passed = code == 0 and delta_gate(payload, item.n)
        ref = self.reference.get(item.id)
        if passed and ref is not None:
            passed = reference_deviation(payload, ref) <= REFERENCE_TOL
        agreement = mpf(payload["max_pairwise_deviation"]) if payload else None
        return Outcome(passed, wall, agreement, stdout,
                       key=(code, stdout), payload=payload, ref_s=ref_s)


class Verify512(_FreshCells):
    name = "verify_512"
    n_values = (2,)   # one size: the median item is then a typical item
    prec = 512

    def argv(self, item):
        return ["verify", "--n-range", f"{item.n}..{item.n}",
                "--m", ",".join(item.m), "--precision-bits", str(self.prec),
                "--format", "json"]

    def run_item(self, tx, item):
        code, stdout, wall, ref_s = run_cli(tx, self.argv(item), self.clock)
        report = json.loads(stdout) if stdout else None
        passed = code == 0 and bool(report and report["all_passed"])
        agreement, retries = None, 0
        if report:
            with mp.workprec(self.prec):
                agreement = max(mpf(c["value"]) for e in report["entries"]
                                for c in e["checks"] if c["name"] == "agreement")
            retries = sum(len(e["retried_at"]) for e in report["entries"])
        return Outcome(passed, wall, agreement, stdout, retries,
                       key=(code, stdout), ref_s=ref_s)


class CheckBattery(Workload):
    name = "check_battery"
    n_values = (5,)   # 24 nondegenerate roots; one n keeps every item alike
    ROUND_SIZE = 4

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng()
        self.m = {n: draw_m(rng) for n in self.n_values}
        self.roots = {}

    def setup(self, tx):
        """Solve the fixture roots: one (n, m) per n."""
        for n in self.n_values:
            m = make_m(tx, *self.m[n])
            self.roots[n] = (m, tx.pretzel.solve_s_roots(n, m, PREC))
        found = sum(len(recs) for _, recs in self.roots.values())
        nondeg = sum(1 for _, recs in self.roots.values()
                     for rec in recs if not rec.flags)
        self.root_stats = (found, nondeg)

    def cycle(self):
        """Every nondegenerate fixture root once, as (n, root index)."""
        return [(n, i) for n in self.n_values
                for i, rec in enumerate(self.roots[n][1]) if not rec.flags]

    def rounds(self):
        """ROUND_SIZE roots per round, going round the cycle again and again."""
        order = self.cycle()
        k = 0
        while True:
            items = []
            for _ in range(self.ROUND_SIZE):
                n, i = order[k % len(order)]
                items.append(Item(f"c{k // len(order)}:n{n}:root{i}", n, self.m[n], i))
                k += 1
            yield items

    def trace_rounds(self):
        """One whole cycle."""
        stream = self.rounds()
        return [next(stream) for _ in range(max(1, len(self.cycle()) // self.ROUND_SIZE))]

    def run_item(self, tx, item):
        m, recs = self.roots[item.n]
        rec = recs[item.root_index]
        checks, wall, ref_s = self.clock.time(self.check_root, tx, item.n, m, rec)
        passed = all(c.passed for c in checks)
        agreement = next(c.value for c in checks if c.name == "agreement")
        key = tuple((c.name, bool(c.passed), repr(c.value)) for c in checks)
        return Outcome(passed, wall, mpf(agreement), key=key, ref_s=ref_s)

    @staticmethod
    def check_root(tx, n, m, rec):
        ctx = tx.pretzel.build_context(n, m, rec.s, prec=PREC, strict=False,
                                       residual=rec.residual)
        return tx.verify.check_context(ctx, independence=True)


WORKLOADS = {cls.name: cls for cls in (DeltaCold, CheckBattery, Verify512)}
