"""Span tracing of balancelab's layers, installed from outside the package.

A :class:`Tracer` replaces the public functions and methods listed in
:data:`LAYERS` with wrappers that record one span per call (name, start,
end, parent span, thread) plus exact work counts taken from the call's
arguments and result.  Every ``balancelab`` module namespace that binds a
wrapped function gets the wrapper, so ``cli.solve`` and ``harness.solve``
are both traced.  Spans stay in memory until :meth:`Tracer.metrics`
reduces them; :meth:`Tracer.uninstall` puts every original back.

Spans started in a ``solve_points`` worker thread have no parent on their
own thread, so they attach to the ``solve_points`` span that started the
pool.  Self time is a span's duration minus the union of its children's
intervals, which stays correct when children run in parallel threads.
A count hook runs after its span has closed, inside the enclosing span;
its interval joins that span's children, so the tracer's own counting is
not charged to the program's self time.
"""

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

POOL_SPAN = "harness.solve_points"
HOOK_SPAN = "trace.hook"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span" = None
    thread: int = 0
    children: list = field(default_factory=list)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span):
    """Duration of a span minus the union of its children's intervals."""
    inside = [(max(c.start, span.start), min(c.end, span.end))
              for c in span.children]
    covered = union_length([(lo, hi) for lo, hi in inside if hi > lo])
    return (span.end - span.start) - covered


# ---------------------------------------------------------------------------
# Work counts recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _count_rows(tracer, args, result):
    tracer.add("monotone.regularize_theta.rows", int(result.table.shape[0]))


def _count_steps(tracer, args, result):
    n_cells = int(result.grid.n_cells)
    tracer.add("solver.steps", result.n_steps)
    tracer.add("solver.cell_steps", result.n_steps * n_cells)
    if tracer.pool_active():
        tracer.add("solver.pooled_steps", result.n_steps)


def _count_gather(tracer, args, result):
    # interfaces x widest slope-cell bracket, from the call's arguments and
    # the table geometry (reg.u_lo, reg.du): a computed size that ignores
    # caching, not a measured one
    reg, uL, uR = args[0], np.asarray(args[1]), np.asarray(args[2])
    n_slope = reg.n_samples - 1
    lo = np.minimum(uL, uR)
    hi = np.maximum(uL, uR)
    i0 = np.clip(np.floor((lo - reg.u_lo) / reg.du).astype(int), 0,
                 n_slope - 1)
    i1 = np.clip(np.ceil((hi - reg.u_lo) / reg.du).astype(int), i0 + 1,
                 n_slope)
    width = max(int((i1 - i0).max()), 1)
    tracer.add("solver.numerical_flux.gather_elems", width * len(uL))
    tracer.peak("solver.numerical_flux.max_width", width)


def _table_key(spec, grid):
    # everything the theta and flux tables depend on
    return json.dumps([spec.theta_graph.to_dict(), spec.coeff,
                       spec.flux.to_dict(), spec.gap_slope, spec.j,
                       spec.sample_radius,
                       [grid.x_lo, grid.x_hi, grid.n_cells]],
                      sort_keys=True)


def _count_repeat(tracer, args, result):
    key = _table_key(result.spec, result.grid)
    with tracer.lock:
        seen = key in tracer.table_keys
        tracer.table_keys.add(key)
    tracer.add("solver.regularized.repeats", int(seen))


def _count_measure(tracer, args, result):
    tracer.add("measures.blocks", result.n_t_blocks * result.n_x_blocks)
    tracer.add("measures.atoms", sum(len(vals) for row in result.atoms
                                     for vals, _ in row))


def _count_block_evals(tracer, args, result):
    tracer.add("measures.block_evals", len(args[0].blocks))


# (module, attribute path, span name, count hook); the span name's first
# part is the layer.  Artifact writers all report as ``cli.write``.
LAYERS = [
    ("config", "load_config", "config.load_config", None),
    ("flux", "mollify_callable", "flux.mollify_callable", None),
    ("monotone", "regularize_theta", "monotone.regularize_theta", _count_rows),
    ("monotone", "ThetaRegularization.eta_cells", "monotone.eta_cells", None),
    ("solver", "regularized", "solver.regularized", _count_repeat),
    ("solver", "solve", "solver.solve", _count_steps),
    ("solver", "RegularizedProblem.numerical_flux", "solver.numerical_flux",
     _count_gather),
    ("harness", "solve_points", POOL_SPAN, None),
    ("harness", "self_convergence_order", "harness.self_convergence_order",
     None),
    ("entropy", "ResidualEvaluator.__init__", "entropy.evaluator", None),
    ("entropy", "ResidualEvaluator.terms", "entropy.terms", None),
    ("entropy", "ResidualEvaluator.residual", "entropy.residual", None),
    ("entropy", "pair_gap_battery", "entropy.pair_gap_battery", None),
    ("measures", "estimate_young_measure", "measures.estimate_young_measure",
     _count_measure),
    ("measures", "MeasureContext.__init__", "measures.context", None),
    ("measures", "MeasureContext.residual", "measures.residual",
     _count_block_evals),
    ("measures", "support_and_trace_check",
     "measures.support_and_trace_check", None),
    ("cli", "_write_json", "cli.write", None),
    ("solver", "run_to_csv", "cli.write", None),
    ("entropy", "EntropyReport.write_json", "cli.write", None),
    ("entropy", "EntropyReport.write_csv", "cli.write", None),
    ("harness", "ScheduleReport.write_json", "cli.write", None),
    ("harness", "ScheduleReport.write_csv", "cli.write", None),
    ("measures", "YoungMeasureEstimate.write_json", "cli.write", None),
    ("measures", "write_mv_table_csv", "cli.write", None),
]

# per-layer metrics reported from spans: (name, unit, kind, span name)
SPAN_METRICS = [
    ("config.load_config.s", "s", "wall", "config.load_config"),
    ("flux.mollify_callable.calls", "count", "calls", "flux.mollify_callable"),
    ("flux.mollify_callable.self_s", "s", "self", "flux.mollify_callable"),
    ("monotone.regularize_theta.calls", "count", "calls",
     "monotone.regularize_theta"),
    ("monotone.regularize_theta.self_s", "s", "self",
     "monotone.regularize_theta"),
    ("monotone.eta_cells.calls", "count", "calls", "monotone.eta_cells"),
    ("monotone.eta_cells.self_s", "s", "self", "monotone.eta_cells"),
    ("solver.regularized.calls", "count", "calls", "solver.regularized"),
    ("solver.regularized.self_s", "s", "self", "solver.regularized"),
    ("solver.solve.calls", "count", "calls", "solver.solve"),
    ("solver.solve.self_s", "s", "self", "solver.solve"),
    ("solver.numerical_flux.calls", "count", "calls", "solver.numerical_flux"),
    ("solver.numerical_flux.self_s", "s", "self", "solver.numerical_flux"),
    ("harness.solve_points.calls", "count", "calls", POOL_SPAN),
    ("harness.solve_points.wall_s", "s", "wall", POOL_SPAN),
    ("harness.self_convergence_order.self_s", "s", "self",
     "harness.self_convergence_order"),
    ("entropy.evaluator.calls", "count", "calls", "entropy.evaluator"),
    ("entropy.evaluator.self_s", "s", "self", "entropy.evaluator"),
    ("entropy.terms.calls", "count", "calls", "entropy.terms"),
    ("entropy.residual.calls", "count", "calls", "entropy.residual"),
    ("entropy.residual.self_s", "s", "self", "entropy.residual"),
    ("entropy.pair_gap_battery.self_s", "s", "self",
     "entropy.pair_gap_battery"),
    ("measures.estimate_young_measure.self_s", "s", "self",
     "measures.estimate_young_measure"),
    ("measures.context.calls", "count", "calls", "measures.context"),
    ("measures.context.self_s", "s", "self", "measures.context"),
    ("measures.residual.calls", "count", "calls", "measures.residual"),
    ("measures.residual.self_s", "s", "self", "measures.residual"),
    ("measures.support_and_trace_check.self_s", "s", "self",
     "measures.support_and_trace_check"),
    ("cli.write.self_s", "s", "self", "cli.write"),
]

# per-layer metrics reported from the count hooks: (name, unit)
COUNT_METRICS = [
    ("monotone.regularize_theta.rows", "count"),
    ("solver.regularized.repeats", "count"),
    ("solver.steps", "count"),
    ("solver.cell_steps", "count"),
    ("solver.numerical_flux.gather_elems", "count"),
    ("solver.numerical_flux.max_width", "count"),
    ("measures.blocks", "count"),
    ("measures.atoms", "count"),
    ("measures.block_evals", "count"),
]


def _resolve(module, path):
    """(owner, attribute) of a module function or a ``Class.method``."""
    if "." not in path:
        return module, path
    cls, attr = path.split(".")
    return getattr(module, cls), attr


class Tracer:
    """Span recorder for one traced run; install, run, uninstall, reduce."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.table_keys = set()
        self.lock = threading.Lock()
        self._local = threading.local()
        self._pool = []
        self._patches = []

    # -- recording ---------------------------------------------------------------

    def add(self, name, value):
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        with self.lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def pool_active(self):
        return bool(self._pool) and self._pool[-1].thread != threading.get_ident()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name):
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread of the solve_points pool starts empty
            parent = self._pool[-1] if self._pool else None
        span = Span(name, time.perf_counter(), parent=parent, thread=thread)
        stack.append(span)
        if name == POOL_SPAN:
            self._pool.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == POOL_SPAN:
            self._pool.remove(span)
        with self.lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    def _run_hook(self, hook, parent, args, result):
        start = time.perf_counter()
        hook(self, args, result)
        if parent is not None:
            # a child interval only: the hook is in no metric of its own
            done = Span(HOOK_SPAN, start, time.perf_counter(), parent,
                        threading.get_ident())
            with self.lock:
                parent.children.append(done)

    def wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if hook is not None:
                tracer._run_hook(hook, span.parent, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        """Wrap every layer function in every balancelab namespace."""
        import balancelab.cli  # noqa: F401  (loads every submodule)
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "balancelab" or n.startswith("balancelab.")]
        for module_name, path, name, hook in LAYERS:
            module = sys.modules["balancelab." + module_name]
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, hook)
            if "." in path:
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------------

    def metrics(self, run_start, run_end):
        """Per-layer metrics of the finished run, by metric name."""
        calls, wall, own = {}, {}, {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            wall[s.name] = wall.get(s.name, 0.0) + (s.end - s.start)
            own[s.name] = own.get(s.name, 0.0) + self_time(s)
        out = {}
        for metric, unit, kind, span_name in SPAN_METRICS:
            table = {"calls": calls, "wall": wall, "self": own}[kind]
            out[metric] = (table.get(span_name, 0), unit)
        for metric, unit in COUNT_METRICS:
            out[metric] = (self.counts.get(metric, 0), unit)
        reg_calls = calls.get("solver.regularized", 0)
        out["solver.regularized.repeat_ratio"] = (
            self.counts.get("solver.regularized.repeats", 0) / reg_calls
            if reg_calls else 0.0, "ratio")
        pool_wall = wall.get(POOL_SPAN, 0.0)
        member = sum(c.end - c.start for s in self.spans
                     if s.name == POOL_SPAN for c in s.children
                     if c.name != HOOK_SPAN)
        out["harness.solve_points.overlap"] = (
            member / pool_wall if pool_wall else 0.0, "ratio")
        run_s = run_end - run_start
        covered = union_length([(max(s.start, run_start), min(s.end, run_end))
                                for s in self.spans if s.parent is None])
        out["trace.coverage"] = (covered / run_s, "ratio")
        return out

    def top_self(self):
        """Span names by total self time, largest first."""
        own = {}
        for s in self.spans:
            own[s.name] = own.get(s.name, 0.0) + self_time(s)
        return sorted(own.items(), key=lambda kv: -kv[1])
