"""Spans around talex's public functions, recorded from outside the package.

``instrument(tracer, tx)`` replaces each function named in ``SPANS`` with a
wrapper that records a span, in the defining module *and* in every other
talex module that bound the same function object with ``from ... import``
(``talex.verify`` holds its own ``wada_numerator``, for example), so no
call path escapes the trace.  A few hot methods only get counters, and
``mp.polyroots`` gets a probe span: a library call whose time stays in the
self time of the talex layer that made it.

Spans are kept in memory; ``analyse`` turns them into per-layer busy and
self times after the run.  A span's self time is its duration minus the
time covered by its child layer spans (children of one span never overlap:
everything runs on one thread).
"""

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

import mpmath

# (module, attribute, span name); the name may depend on the arguments
SPANS = [
    ("pretzel", "solve_s_roots", "pretzel.solve_s_roots"),
    ("pretzel", "degeneracy_flags", "pretzel.degeneracy_flags"),
    ("pretzel", "build_context", "pretzel.build_context"),
    ("pretzel", "rep_relation_check", "pretzel.rep_relation_check"),
    ("fox", "wada_numerator", "fox.wada_numerator"),
    ("fox", "phi_map", "fox.phi_map"),
    ("fox", "wada_denominator", "fox.wada_denominator"),
    ("fox", "wada_polynomial", "fox.wada_polynomial"),
    ("laurent", "poly_mat_det", "laurent.poly_mat_det"),
    ("laurent", "divide_with_remainder", "laurent.divide_with_remainder"),
    ("closed_form", "delta_theorem", "closed_form.delta_theorem"),
    ("closed_form", "delta_prop32", "closed_form.delta_prop32"),
    ("closed_form", "zeta_vanishing", "closed_form.zeta_vanishing"),
    ("verify", "check_context", "verify.check_context"),
    ("verify", "verify_sweep", "verify.verify_sweep"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("pretzel", "BivarPoly", "eval", "pretzel.BivarPoly.eval"),
]

# (module, class, method, counter name): too hot for a span each
METHOD_COUNTERS = [
    ("laurent", "Mat2", "__mul__", "laurent.Mat2.mul.count"),
    ("scalars", "Scalar", "_bin", "scalars.Scalar.ops.count"),
]


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent, item, layer]
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self.item = None
        self.missing = []
        self._stack = []

    def open(self, name, layer=True):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent,
                           self.item, layer])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def note_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)


# -- hooks that read a layer's result -------------------------------------


def _wada_numerator_name(args, kwargs):
    pres = args[0] if args else kwargs["pres"]
    return "fox.wada_numerator." + ("two" if len(pres.generators) == 2 else "three")


def _after_solve(tracer, result, args, kwargs):
    tracer.counts["pretzel.roots.found"] += len(result)
    tracer.counts["pretzel.roots.nondegenerate"] += sum(
        1 for rec in result if not rec.flags)


def _after_division(tracer, result, args, kwargs):
    """Bits lost: log2(relative remainder * 2^prec), 0 for no remainder."""
    num = args[0] if args else kwargs["num"]
    den = args[1] if len(args) > 1 else kwargs["den"]
    rel_rem = result[1]
    prec = max(num.prec, den.prec)
    bits = float(mpmath.log(rel_rem, 2)) + prec if rel_rem > 0 else 0.0
    tracer.note_max("laurent.division.bits_lost_max", max(bits, 0.0))


def _after_check_context(tracer, result, args, kwargs):
    tracer.counts["verify.checks.total"] += len(result)
    tracer.counts["verify.checks.passed"] += sum(1 for c in result if c.passed)


NAMERS = {"fox.wada_numerator": _wada_numerator_name}
AFTER = {
    "pretzel.solve_s_roots": _after_solve,
    "laurent.divide_with_remainder": _after_division,
    "verify.check_context": _after_check_context,
}


def _span_wrapper(tracer, name, fn, layer=True):
    namer, after = NAMERS.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(namer(args, kwargs) if namer else name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after:
            after(tracer, result, args, kwargs)
        return result
    return wrapper


def _counter_wrapper(tracer, name, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _polyroots_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(coeffs, *args, **kwargs):
        tracer.counts["mpmath.polyroots.degree_sum"] += len(coeffs) - 1
        sid = tracer.open("mpmath.polyroots", layer=False)
        try:
            return fn(coeffs, *args, **kwargs)
        finally:
            tracer.close(sid)
    return wrapper


@contextlib.contextmanager
def instrument(tracer, tx):
    """Patch every binding of the traced functions for the duration of the
    block and restore the originals afterwards.  Targets the installed
    talex no longer has are listed in ``tracer.missing``."""
    restore = []
    try:
        for mod_name, attr, name in SPANS:
            mod = getattr(tx, mod_name, None)
            original = getattr(mod, attr, None)
            if original is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = _span_wrapper(tracer, name, original)
            for binder in tx.modules:
                for key, value in list(vars(binder).items()):
                    if value is original:
                        setattr(binder, key, wrapper)
                        restore.append((binder, key, original))
        for specs, make in ((METHOD_SPANS, _span_wrapper),
                            (METHOD_COUNTERS, _counter_wrapper)):
            for mod_name, cls_name, attr, name in specs:
                cls = getattr(getattr(tx, mod_name, None), cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    tracer.missing.append(f"{mod_name}.{cls_name}.{attr}")
                    continue
                setattr(cls, attr, make(tracer, name, original))
                restore.append((cls, attr, original))
        mp = tx.mpmath.mp
        mp.polyroots = _polyroots_wrapper(tracer, mp.polyroots)
        yield tracer
    finally:
        vars(tx.mpmath.mp).pop("polyroots", None)
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


# -- analysis ---------------------------------------------------------------


def self_times(spans):
    """Self time in seconds of every layer span (probe spans get none)."""
    covered = defaultdict(int)
    for name, start, end, parent, item, layer in spans:
        if layer and parent is not None:
            covered[parent] += end - start
    return {sid: (s[2] - s[1] - covered[sid]) / 1e9
            for sid, s in enumerate(spans) if s[5]}


def _outermost(spans, sid):
    """True unless an ancestor span has the same name (recursion)."""
    name, parent = spans[sid][0], spans[sid][3]
    while parent is not None:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def analyse(spans):
    """Per span name: calls, busy seconds (recursion counted once), self
    seconds, and the list of outermost durations; a name without spans
    reads as an empty row."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                               "durations": []})
    for sid, (name, start, end, parent, item, layer) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs.get(sid, 0.0)
        if _outermost(spans, sid):
            dur = (end - start) / 1e9
            row["busy_s"] += dur
            row["durations"].append(dur)
    return out


def _ratio(num, den):
    """Useful outcomes over attempts; 1 when nothing was attempted."""
    return num / den if den else 1.0


def layer_metrics(tracer, root_stats=None):
    """The per-layer metrics of BENCHMARK.json, as {name: value}.

    ``root_stats`` = (found, nondegenerate) supplies the root counts when
    the traced pass made no solver call (the roots came from set-up).
    """
    row = analyse(tracer.spans).__getitem__
    c = tracer.counts
    found, nondeg = c["pretzel.roots.found"], c["pretzel.roots.nondegenerate"]
    if not found and root_stats:
        found, nondeg = root_stats
    check = row("verify.check_context")
    return {
        "pretzel.solve_s_roots.calls": row("pretzel.solve_s_roots")["calls"],
        "pretzel.solve_s_roots.busy_s": row("pretzel.solve_s_roots")["busy_s"],
        "pretzel.solve_s_roots.self_s": row("pretzel.solve_s_roots")["self_s"],
        "mpmath.polyroots.calls": row("mpmath.polyroots")["calls"],
        "mpmath.polyroots.busy_s": row("mpmath.polyroots")["busy_s"],
        "mpmath.polyroots.degree_sum": c["mpmath.polyroots.degree_sum"],
        "pretzel.degeneracy_flags.busy_s": row("pretzel.degeneracy_flags")["busy_s"],
        "pretzel.BivarPoly.eval.busy_s": row("pretzel.BivarPoly.eval")["busy_s"],
        "pretzel.roots.nondegenerate_ratio": _ratio(nondeg, found),
        "pretzel.build_context.busy_s": row("pretzel.build_context")["busy_s"],
        "pretzel.rep_relation_check.busy_s": row("pretzel.rep_relation_check")["busy_s"],
        "fox.wada_numerator.busy_s.two": row("fox.wada_numerator.two")["busy_s"],
        "fox.wada_numerator.busy_s.three": row("fox.wada_numerator.three")["busy_s"],
        "fox.phi_map.calls": row("fox.phi_map")["calls"],
        "fox.phi_map.busy_s": row("fox.phi_map")["busy_s"],
        "fox.wada_denominator.busy_s": row("fox.wada_denominator")["busy_s"],
        "fox.wada_polynomial.busy_s": row("fox.wada_polynomial")["busy_s"],
        "laurent.Mat2.mul.count": c["laurent.Mat2.mul.count"],
        "laurent.poly_mat_det.busy_s": row("laurent.poly_mat_det")["busy_s"],
        "laurent.divide_with_remainder.busy_s": row("laurent.divide_with_remainder")["busy_s"],
        "laurent.division.bits_lost_max": tracer.maxima.get("laurent.division.bits_lost_max", 0.0),
        "scalars.Scalar.ops.count": c["scalars.Scalar.ops.count"],
        "closed_form.delta_theorem.busy_s": row("closed_form.delta_theorem")["busy_s"],
        "closed_form.delta_prop32.busy_s": row("closed_form.delta_prop32")["busy_s"],
        "closed_form.zeta_vanishing.busy_s": row("closed_form.zeta_vanishing")["busy_s"],
        "verify.check_context.calls": check["calls"],
        "verify.check_context.busy_s": check["busy_s"],
        "verify.check_context.self_s": check["self_s"],
        "verify.check_context.p50_s": (statistics.median(check["durations"])
                                       if check["durations"] else 0.0),
        "verify.checks.pass_ratio": _ratio(c["verify.checks.passed"],
                                           c["verify.checks.total"]),
        "cli.main.busy_s": row("cli.main")["busy_s"],
        "cli.main.self_s": row("cli.main")["self_s"],
    }


def self_shares(tracer, wall_s):
    """[(span name, self seconds, share of wall_s)], largest first."""
    rows = analyse(tracer.spans)
    shares = [(name, r["self_s"], r["self_s"] / wall_s)
              for name, r in rows.items() if r["self_s"] > 0]
    return sorted(shares, key=lambda x: -x[1])
