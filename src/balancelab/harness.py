"""Parameter-schedule sweeps that measure the solver's limit structure.

``sweep(kind, spec, grid, values)`` solves one problem along a schedule
of one regularization index, with the other two held at their values in
``spec``, and returns a ScheduleReport:

* kinds ``"m"`` and ``"ell"`` sweep a perturbation weight and compare
  consecutive runs cellwise.  The perturbation phi_{l,m}(r) = (1/l)
  atan(r^-) - (1/m) atan(r^+) is strictly decreasing in r, so weakening
  the positive side (m up) raises the solution while strengthening the
  negative side (l up) lowers it; the transformed field v inherits the
  ordering.  The discrete scheme only keeps this ordering up to its
  consistency error, so violations are recorded as data next to the
  tolerance ``scheme_tol(dx) = 10 dx (1 + max|v|)``, never raised as
  errors.
* kind ``"j"`` sweeps the graph-smoothing index and reports consecutive
  L1 distances at the final time; callers assert Cauchy behavior.

``self_convergence_order`` estimates the refinement order from a
dx-halving grid triple by cell-pair averaging the finer runs.

A sweep runs its schedule through ``solve_points``, which builds one
table set per distinct (j, gap_slope, sample_radius, theta_graph, coeff,
flux): ell and m enter only through the source terms, so an m or ell
sweep builds its tables once and a j sweep once per point.  All points share
one time step, the smallest stable step over the schedule, so runs stay
comparable point by point.  Schedule points solve one at a time, in
schedule order: each member's arithmetic is independent of the others,
and on a 2-vCPU host concurrent members cost more CPU than they save in
wall time.  They run on one worker thread only so that the benchmark's
tracer (``perfbench/spans.py``) counts their steps.  Aggregation is by
schedule index, so repeated invocations give bit-identical reports.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from concurrent import futures

import numpy as np

from .config import write_json
from .solver import cfl_dt, regularized, solve

# Ordering directions along the schedule: later m entries raise v, later
# ell entries lower it, and the j sweep asserts no ordering at all.
_DIRECTIONS = {"m": "increasing", "ell": "decreasing", "j": "none"}


def scheme_tol(dx, values):
    """Ordering tolerance 10*dx*(1 + max|values|).

    The continuous ordering is exact; the scheme perturbs it at its
    consistency order, so the allowance scales with dx and with the
    solution magnitude.  The constant is deliberately generous and always
    reported alongside the measurements, never absorbed silently.
    """
    values = np.asarray(values, dtype=float)
    vmax = float(np.max(np.abs(values))) if values.size else 0.0
    return 10.0 * float(dx) * (1.0 + vmax)


@dataclasses.dataclass
class ScheduleReport:
    """Aggregated measurements of one schedule sweep.

    ``schedule`` holds the strictly increasing parameter values, one entry
    of ``summaries`` describes each run, and the pairwise fields compare
    consecutive runs: ``distances`` are L1 gaps of u at the final time,
    ``violation_counts`` / ``violation_maxima`` measure cellwise ordering
    failures beyond ``tolerance`` over every snapshot (empty for sweeps
    that assert no ordering), and ``orders`` are log2 ratios of
    consecutive distances (None where a distance vanishes, so every
    recorded estimate is finite).
    """

    kind: str
    schedule: list
    summaries: list
    distances: list
    violation_counts: list
    violation_maxima: list
    orders: list
    tolerance: float
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def n_pairs(self):
        return max(len(self.schedule) - 1, 0)

    @property
    def max_violation(self):
        return max(self.violation_maxima, default=0.0)

    @property
    def total_violations(self):
        return int(sum(self.violation_counts))

    def to_dict(self):
        return {
            "kind": self.kind,
            "schedule": list(self.schedule),
            "summaries": [dict(s) for s in self.summaries],
            "distances": list(self.distances),
            "violation_counts": list(self.violation_counts),
            "violation_maxima": list(self.violation_maxima),
            "orders": list(self.orders),
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "total_violations": self.total_violations,
            "meta": dict(self.meta),
        }

    def write_json(self, path):
        write_json(self.to_dict(), path)

    def write_csv(self, path):
        """One row per consecutive pair, ready for plotting distances/orders."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair", "value_lo", "value_hi", "l1_distance",
                        "violations", "max_violation", "order"])
            for i in range(self.n_pairs):
                count = self.violation_counts[i] if self.violation_counts else 0
                vmax = self.violation_maxima[i] if self.violation_maxima else 0.0
                order = self.orders[i] if i < len(self.orders) else None
                w.writerow([i, repr(self.schedule[i]), repr(self.schedule[i + 1]),
                            repr(self.distances[i]), count, repr(vmax),
                            "" if order is None else repr(order)])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def solve_points(specs, grid, snapshots=8):
    """Solve one run per spec on shared tables with one shared time step.

    The tables depend only on j, gap_slope, sample_radius and the
    theta_graph, coeff and flux objects, never on ell, m or the datum, so
    specs that share those (by identity; sweeps derive their specs with
    ``dataclasses.replace``) share one ``regularized`` build, and each spec
    gets a copy that reads its own ell, m and j in ``source_values`` and
    ``lip_source``.  The step is the smallest stable step over the specs,
    so the runs share snapshot instants exactly.  The runs go one at a
    time, in spec order, on one worker thread (see the module docstring
    for why); returns (runs, dt, regs) in spec order.
    """
    built, regs, dts = {}, [], []
    for s in specs:
        key = (s.j, s.gap_slope, s.sample_radius, id(s.theta_graph),
               id(s.coeff), id(s.flux))
        if key not in built:
            built[key] = regularized(s, grid)
        reg = dataclasses.replace(built[key], spec=s)
        regs.append(reg)
        dts.append(cfl_dt(s.initial_values(grid.centers, grid.dx), reg))
    dt = float(min(dts))
    # one worker, kept only because perfbench/spans.py counts sweep steps
    # from solves off the calling thread: a plain loop here would count none
    with futures.ThreadPoolExecutor(max_workers=1) as ex:
        runs = list(ex.map(
            lambda i: solve(specs[i], grid, snapshots=snapshots,
                            dt_override=dt, reg=regs[i]),
            range(len(specs))))
    return runs, dt, regs


def _summarize(value, run, grid):
    u = run.final_u
    return {
        "value": float(value),
        "u_min": float(u.min()),
        "u_max": float(u.max()),
        "u_l1": float(np.abs(u).sum() * grid.dx),
        "v_abs_max": float(np.abs(run.V).max()),
        "n_steps": run.n_steps,
        "final_t": run.final_t,
    }


def _orders_from(distances):
    orders = []
    for a, b in zip(distances, distances[1:]):
        orders.append(math.log2(a / b) if a > 0.0 and b > 0.0 else None)
    return orders


def sweep(kind, spec, grid, values, snapshots=8):
    """Solve ``spec`` once per schedule value of index ``kind`` ("m",
    "ell" or "j"), the other two indices held at their values in ``spec``.

    Consecutive runs are compared at the final time (L1 distances) and,
    for m and ell, cellwise over every snapshot: later m entries must
    raise v and later ell entries lower it, up to ``scheme_tol``.  A
    single-entry schedule yields an empty pairwise report.  Violations
    are measurements, not errors.
    """
    if kind not in _DIRECTIONS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    schedule = [float(v) for v in values]
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    points = schedule
    if kind == "j":
        if any(not v.is_integer() or v < 1 for v in schedule):
            raise ValueError("j schedule entries must be integers >= 1")
        points = [int(v) for v in schedule]
    specs = [dataclasses.replace(spec, **{kind: v}) for v in points]
    runs, dt, _ = solve_points(specs, grid, snapshots)
    summaries = [_summarize(v, run, grid) for v, run in zip(schedule, runs)]
    tol = scheme_tol(grid.dx, [s["v_abs_max"] for s in summaries])

    distances, counts, maxima = [], [], []
    direction = _DIRECTIONS[kind]
    for lo, hi in zip(runs, runs[1:]):
        distances.append(float(np.abs(lo.final_u - hi.final_u).sum() * grid.dx))
        if direction == "increasing":
            excess = lo.V - hi.V
        elif direction == "decreasing":
            excess = hi.V - lo.V
        else:
            continue
        counts.append(int(np.count_nonzero(excess > tol)))
        maxima.append(float(max(excess.max(), 0.0)))

    meta = {name: getattr(spec, name) for name in ("ell", "m", "j")
            if name != kind}
    meta.update({
        "ordering": direction,
        "dt": dt,
        "snapshots": snapshots,
        "grid": {"n_cells": grid.n_cells, "x_lo": grid.x_lo,
                 "x_hi": grid.x_hi, "dx": grid.dx},
    })
    return ScheduleReport(
        kind=kind, schedule=schedule, summaries=summaries,
        distances=distances, violation_counts=counts,
        violation_maxima=maxima, orders=_orders_from(distances),
        tolerance=tol, meta=meta)


def check_grid_triple(grids):
    """Raise ValueError unless ``grids`` are three dx-halving grids of one
    domain, the refinement ``self_convergence_order`` needs."""
    if len(grids) != 3:
        raise ValueError("need exactly three grids")
    for g_lo, g_hi in zip(grids, grids[1:]):
        if (g_lo.x_lo, g_lo.x_hi) != (g_hi.x_lo, g_hi.x_hi):
            raise ValueError("grids must share the domain")
        if g_hi.n_cells != 2 * g_lo.n_cells:
            raise ValueError("grids must halve dx at each step")


def self_convergence_order(spec, grids, snapshots=4):
    """Estimated refinement order from a dx-halving grid triple.

    order = log2(||u_dx - u_{dx/2}||_1 / ||u_{dx/2} - u_{dx/4}||_1) with
    the finer run restricted to the coarser grid by cell-pair averaging.
    A vanishing denominator (exact agreement, e.g. constant data) returns
    the +inf sentinel.
    """
    check_grid_triple(grids)
    finals = [solve(spec, g, snapshots=snapshots).final_u for g in grids]

    def restrict(u):
        return u.reshape(-1, 2).mean(axis=1)

    d_coarse = float(np.abs(finals[0] - restrict(finals[1])).sum() * grids[0].dx)
    d_fine = float(np.abs(finals[1] - restrict(finals[2])).sum() * grids[1].dx)
    if d_fine == 0.0:
        return math.inf
    if d_coarse == 0.0:
        return -math.inf
    return math.log2(d_coarse / d_fine)
