"""Outside-in layer trace of the ``icand`` package.

The tracer wraps the public functions of each ``icand`` module from outside
the package: while installed, every module attribute in ``icand.*`` that is
bound to a traced function is rebound to a wrapper, so callers that did
``from .quadrature import integrate`` at import time are traced too.  Each
call becomes a span (name, start, end, parent) kept in memory.  The
integrand handed to quadrature is wrapped as well, so its calls and
abscissas are counted.  ``InputDistribution.__init__`` is wrapped on the
class.  Uninstalling restores every attribute.

The layer of a span is the part of its name before the first dot, which is
the ``icand`` module that does the work.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time

from workloads import closed_form_uniform

# (defining module, attribute, span name, wraps the integrand argument)
TRACED_FUNCTIONS = (
    ("icand.cli", "main", "cli.main", False),
    ("icand.optimize", "maximize_internal", "optimize.maximize", False),
    ("icand.optimize", "maximize_external", "optimize.maximize", False),
    ("icand.buzzers", "information_cost", "buzzers.information_cost", False),
    ("icand.quadrature", "integrate", "quadrature.integrate", True),
    ("icand.quadrature", "integrate_segments", "quadrature.integrate_segments", True),
    ("icand.concavity", "concavity_report", "concavity.report", False),
    ("icand.concavity", "window_deficits", "concavity.window_deficits", False),
    ("icand.concavity", "outside_window_checks", "concavity.outside_window_checks", False),
    ("icand.discretize", "build", "discretize.build", False),
    ("icand.discretize", "exact_ic", "discretize.exact_ic", False),
    ("icand.signals", "sample_terminal_posteriors", "signals.sample", False),
    ("icand.signals", "simulate_signal", "signals.trace", False),
)
CONSTRUCT_SPAN = "measures.construct"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _closed_form_gap(mu, report) -> float | None:
    """True error of a report on the uniform basis measure, else None."""
    vec = mu.vector  # all-zeros, e_1..e_k, all-ones
    if vec[0] != 0.0 or vec[-1] != 0.0 or any(v != vec[1] for v in vec[1:-1]):
        return None
    ext, internal = closed_form_uniform(mu.k)
    return max(abs(report.external_bits - ext), abs(report.internal_bits - internal))


def _span_value(span: str, args, result) -> float | None:
    """The number a span reports about its work, in its layer's own unit."""
    if span == "buzzers.information_cost":
        gap = _closed_form_gap(args[0], result)
        return None if gap is None else float(result.quadrature_error_estimate < gap)
    if span == "discretize.build":
        return float(len(result.leaf_slot))
    if span == "signals.sample":
        return float(round(result.mean_steps * result.n_traces))
    if span == "signals.trace":
        return float(len(result.steps))
    return None


class Tracer:
    """Spans kept in parallel lists; ``value`` holds a span's work count."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.value: list[float | None] = []
        self._stack = [-1]

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.value.append(None)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, span: str, integrand: str | None = None):
        def traced(*args, **kwargs):
            if integrand is not None and not getattr(args[0], "_bench_traced", False):
                args = (self._wrap_integrand(args[0], integrand),) + args[1:]
            i = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            self.value[i] = _span_value(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_integrand(self, f, span: str):
        def traced_integrand(ts):
            i = self.open(span)
            try:
                return f(ts)
            finally:
                self.close(i)
                self.value[i] = float(len(ts))

        traced_integrand._bench_traced = True
        return traced_integrand

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded ``icand`` module."""
        measures = importlib.import_module("icand.measures")
        originals = {}
        for mod_name, attr, span, wraps_integrand in TRACED_FUNCTIONS:
            fn = getattr(importlib.import_module(mod_name), attr)
            originals[id(fn)] = (fn, span, wraps_integrand)
        saved = []
        try:
            for mod_name, module in sorted(_icand_modules().items()):
                for attr, value in list(vars(module).items()):
                    entry = originals.get(id(value))
                    if entry is None or entry[0] is not value:
                        continue
                    fn, span, wraps_integrand = entry
                    integrand = f"{_short(mod_name)}.integrand" if wraps_integrand else None
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, span, integrand))
            cls = measures.InputDistribution
            saved.append((cls, "__init__", cls.__dict__["__init__"]))
            cls.__init__ = self.wrap(cls.__dict__["__init__"], CONSTRUCT_SPAN)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def spans_csv(self) -> str:
        lines = ["index,name,start_s,end_s,parent,value"]
        t0 = self.start[0] if self.start else 0.0
        for i, name in enumerate(self.name):
            v = "" if self.value[i] is None else repr(self.value[i])
            lines.append(f"{i},{name},{self.start[i] - t0!r},{self.end[i] - t0!r},"
                         f"{self.parent[i]},{v}")
        return "\n".join(lines) + "\n"


def _icand_modules() -> dict:
    return {n: m for n, m in list(sys.modules.items())
            if (n == "icand" or n.startswith("icand.")) and m is not None}


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        covered = 0.0
        reach = start[i]
        for c in sorted(kids, key=start.__getitem__):
            lo = max(start[c], reach)
            hi = min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end[i] - start[i]) - covered)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better, the end-to-end metric and workload it should move).
# A layer that a workload never enters reports 0 for its metrics there.
PER_LAYER = (
    ("optimize.evaluations", "count", "lower", "wall_s on disjointness (exact count)"),
    ("optimize.self_s", "s", "lower", "wall_s on disjointness"),
    ("optimize.objective_s", "s", "lower", "wall_s on disjointness"),
    ("buzzers.information_cost.calls", "count", "lower", "wall_s on disjointness, wide_k"),
    ("buzzers.information_cost.ms_p50", "ms", "lower", "wall_s on disjointness, wide_k"),
    ("buzzers.information_cost.ms_p90", "ms", "lower", "wall_s on disjointness, wide_k"),
    ("buzzers.self_s", "s", "lower", "wall_s on disjointness, wide_k"),
    ("buzzers.integrand.calls_per_cost", "calls/cost", "lower",
     "wall_s on disjointness and the random-measure part of wide_k"),
    ("buzzers.abscissas", "count", "lower",
     "wall_s on disjointness and the random-measure part of wide_k (exact count)"),
    ("buzzers.integrand.us_per_abscissa", "us", "lower", "wall_s, peak_rss_mb on wide_k"),
    ("buzzers.err_estimate_violations", "count", "lower",
     "none: reports on wide_k whose error estimate is below the closed-form gap"),
    ("quadrature.integrate.calls", "count", "lower", "wall_s on disjointness, concavity_grid"),
    ("quadrature.panels", "count", "lower",
     "wall_s on disjointness, concavity_grid (exact count)"),
    ("quadrature.self_s", "s", "lower", "wall_s on disjointness, concavity_grid"),
    ("quadrature.integrand_share", "fraction", "higher",
     "wall_s on disjointness, concavity_grid"),
    ("concavity.window_deficits.calls", "count", "lower", "wall_s on concavity_grid"),
    ("concavity.window_deficits.ms_p50", "ms", "lower", "wall_s on concavity_grid"),
    ("concavity.outside_window_checks.ms_p50", "ms", "lower", "wall_s on concavity_grid"),
    ("concavity.integrand.us_per_abscissa", "us", "lower", "wall_s on concavity_grid"),
    ("concavity.abscissas", "count", "lower", "wall_s on concavity_grid"),
    ("concavity.self_s", "s", "lower", "wall_s on concavity_grid"),
    ("discretize.leaves", "count", "lower", "wall_s on wide_k (exact count)"),
    ("discretize.build_s", "s", "lower", "wall_s on wide_k"),
    ("discretize.exact_ic_s", "s", "lower", "wall_s on wide_k"),
    ("discretize.leaves_per_s", "1/s", "higher", "wall_s on wide_k"),
    ("signals.sample.steps", "count", "lower", "wall_s on signal_walk (exact per seed)"),
    ("signals.sample.steps_per_s", "1/s", "higher", "wall_s on signal_walk"),
    ("signals.trace.steps", "count", "lower", "wall_s on signal_walk (exact count)"),
    ("signals.trace.us_per_step", "us", "lower", "wall_s on signal_walk"),
    ("measures.constructions", "count", "lower", "wall_s on signal_walk, disjointness"),
    ("measures.construct_s", "s", "lower", "wall_s on signal_walk, disjointness"),
    ("cli.self_s", "s", "lower", "wall_s on every workload, most on signal_walk"),
    ("tracing_overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, overhead_s: float) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` from one traced pass."""
    own = tr.self_times()
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    by_name: dict[str, list[int]] = {}
    layer_self: dict[str, float] = {}
    for i, name in enumerate(tr.name):
        by_name.setdefault(name, []).append(i)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in spans(name))

    def values(name):
        return sum(tr.value[i] or 0.0 for i in spans(name))

    def ms(name):
        return [1e3 * dur[i] for i in spans(name)]

    cost = spans("buzzers.information_cost")
    objective = [i for i in cost if tr.parent[i] >= 0
                 and tr.name[tr.parent[i]] == "optimize.maximize"]
    integrand_children: dict[int, int] = {}
    for i, name in enumerate(tr.name):
        if name.endswith(".integrand") and tr.parent[i] >= 0:
            integrand_children[tr.parent[i]] = integrand_children.get(tr.parent[i], 0) + 1
    panels = sum((integrand_children.get(i, 0) - 1) // 2
                 for i in spans("quadrature.integrate"))
    top_quadrature = sum(
        dur[i] for i, name in enumerate(tr.name)
        if name.startswith("quadrature.")
        and not (tr.parent[i] >= 0 and tr.name[tr.parent[i]].startswith("quadrature."))
    )
    integrand_s = total("buzzers.integrand") + total("concavity.integrand")
    leaves = values("discretize.build")
    sample_steps = values("signals.sample")
    trace_steps = values("signals.trace")

    metrics = {
        "optimize.evaluations": len(objective),
        "optimize.self_s": layer_self.get("optimize", 0.0),
        "optimize.objective_s": sum(dur[i] for i in objective),
        "buzzers.information_cost.calls": len(cost),
        "buzzers.information_cost.ms_p50": _quantile(ms("buzzers.information_cost"), 0.5),
        "buzzers.information_cost.ms_p90": _quantile(ms("buzzers.information_cost"), 0.9),
        "buzzers.self_s": layer_self.get("buzzers", 0.0),
        "buzzers.integrand.calls_per_cost": _ratio(len(spans("buzzers.integrand")), len(cost)),
        "buzzers.abscissas": values("buzzers.integrand"),
        "buzzers.integrand.us_per_abscissa":
            1e6 * _ratio(total("buzzers.integrand"), values("buzzers.integrand")),
        "buzzers.err_estimate_violations": values("buzzers.information_cost"),
        "quadrature.integrate.calls": len(spans("quadrature.integrate")),
        "quadrature.panels": panels,
        "quadrature.self_s": layer_self.get("quadrature", 0.0),
        "quadrature.integrand_share": _ratio(integrand_s, top_quadrature),
        "concavity.window_deficits.calls": len(spans("concavity.window_deficits")),
        "concavity.window_deficits.ms_p50": _quantile(ms("concavity.window_deficits"), 0.5),
        "concavity.outside_window_checks.ms_p50":
            _quantile(ms("concavity.outside_window_checks"), 0.5),
        "concavity.integrand.us_per_abscissa":
            1e6 * _ratio(total("concavity.integrand"), values("concavity.integrand")),
        "concavity.abscissas": values("concavity.integrand"),
        "concavity.self_s": layer_self.get("concavity", 0.0),
        "discretize.leaves": leaves,
        "discretize.build_s": total("discretize.build"),
        "discretize.exact_ic_s": total("discretize.exact_ic"),
        "discretize.leaves_per_s":
            _ratio(leaves, total("discretize.build") + total("discretize.exact_ic")),
        "signals.sample.steps": sample_steps,
        "signals.sample.steps_per_s": _ratio(sample_steps, total("signals.sample")),
        "signals.trace.steps": trace_steps,
        "signals.trace.us_per_step": 1e6 * _ratio(total("signals.trace"), trace_steps),
        "measures.constructions": len(spans(CONSTRUCT_SPAN)),
        "measures.construct_s": layer_self.get("measures", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "tracing_overhead_s": overhead_s,
    }
    return {name: float(value) for name, value in metrics.items()}
