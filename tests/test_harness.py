"""Schedule sweeps: ordering checks, Cauchy runs, self-convergence."""

import csv
import dataclasses
import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from balancelab import harness
from balancelab.entropy import (FORMS, ResidualEvaluator, battery_from_geometry,
                                k_samples, pair_gap_battery)
from balancelab.flux import FluxCurve
from balancelab.harness import (scheme_tol, self_convergence_order,
                                solve_points, sweep)
from balancelab.monotone import MonotoneGraph
from balancelab.problem import SourceSpec
from balancelab.solver import Grid1D, solve
from conftest import canonical_spec

INF = math.inf

TWOLOBE = {"id": "twolobe", "params": {"height": 0.9, "a": -1.5, "b": 1.5}}
BOX = {"id": "box", "params": {"height": 1.0, "a": -1.0, "b": 0.5}}


def _zero_flux():
    return FluxCurve.from_function(lambda v: 0.0 * v, -4.0, 4.0)


def _mixed_sign_spec(**kw):
    # sign-crossing datum so both perturbation sides act
    return canonical_spec(source=SourceSpec("arctan", {"c": 1.0}),
                          u0=TWOLOBE, **kw)


# ---------------------------------------------------------------------------
# Tolerance and report plumbing
# ---------------------------------------------------------------------------


def test_scheme_tol_formula():
    assert scheme_tol(0.1, [2.0, -3.0]) == pytest.approx(4.0)
    assert scheme_tol(0.25, []) == pytest.approx(2.5)


def test_schedule_validation_errors():
    grid = Grid1D(-2.0, 2.0, 32)
    spec = canonical_spec()
    with pytest.raises(ValueError, match="nonempty"):
        sweep("m", spec, grid, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep("m", spec, grid, [2.0, 1.0])
    with pytest.raises(ValueError, match="integers"):
        sweep("j", spec, grid, [2, 2.5])
    with pytest.raises(ValueError, match="integers"):
        sweep("j", spec, grid, [2, INF])
    with pytest.raises(ValueError, match="unknown schedule kind"):
        sweep("k", spec, grid, [1.0, 2.0])


@pytest.mark.parametrize("field, values, n_builds", [
    ("m", [1.0, 2.0, 4.0, 8.0], 1),
    ("j", [4, 8, 16], 3),
])
def test_solve_points_builds_each_table_set_once(monkeypatch, field, values,
                                                 n_builds):
    # ell and m enter only through the sources, so an m sweep shares one
    # table set; j changes the tables, so a j sweep builds one per point
    built = []
    original = harness.regularized

    def counting(spec, grid):
        built.append(spec)
        return original(spec, grid)

    monkeypatch.setattr(harness, "regularized", counting)
    grid = Grid1D(-2.0, 2.0, 48)
    base = _mixed_sign_spec(ell=2.0)
    specs = [dataclasses.replace(base, **{field: v}) for v in values]
    runs, dt, regs = solve_points(specs, grid, snapshots=4)
    assert len(built) == n_builds
    for spec, run, reg in zip(specs, runs, regs):
        assert reg.spec is spec
        alone = solve(spec, grid, snapshots=4, dt_override=dt)
        assert np.array_equal(run.dt_history, alone.dt_history)
        for name in ("times", "U", "V"):
            assert np.array_equal(getattr(run, name), getattr(alone, name))


def test_solve_points_solves_one_member_at_a_time_off_the_calling_thread(
        monkeypatch):
    # members go in spec order, never two at once, and each on a thread
    # other than the caller's (the benchmark counts sweep steps there)
    lock = threading.Lock()
    active, peak, threads, order = [0], [0], [], []
    original = harness.solve

    def recording(spec, *args, **kwargs):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            threads.append(threading.get_ident())
            order.append(spec)
        try:
            time.sleep(0.02)  # gives a concurrent member time to start
            return original(spec, *args, **kwargs)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(harness, "solve", recording)
    grid = Grid1D(-2.0, 2.0, 32)
    base = _mixed_sign_spec(ell=2.0)
    specs = [dataclasses.replace(base, m=v) for v in (1.0, 2.0, 4.0, 8.0)]
    solve_points(specs, grid, snapshots=2)
    assert peak[0] == 1
    assert order == specs
    assert threading.get_ident() not in threads


SMOOTH = {"kind": "smooth", "a": 1.0, "b": 0.3, "k": 1.0, "phase": 0.5}


def test_solve_points_returns_no_step_table():
    # a smooth-coefficient pair on 512 cells, as verify solves it: once the
    # members have stepped, what solve_points returns holds the theta table
    # and the runs, not the per-interface flux table the steps read
    spec = canonical_spec(coeff=SMOOTH)
    specs = [spec, dataclasses.replace(spec, u0=TWOLOBE)]
    grid = Grid1D(spec.x_lo, spec.x_hi, 512)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        runs, _, regs = solve_points(specs, grid, snapshots=4)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    one_table = (grid.n_cells + 1) * regs[0].n_samples * 8
    snapshots = sum(run.U.nbytes + run.V.nbytes for run in runs)
    assert held - snapshots <= 1.3 * one_table  # 1.04 measured
    assert all(reg.flux is None for reg in regs)


@pytest.mark.filterwarnings("error")
def test_solve_points_rejects_a_non_finite_datum_before_any_table_read():
    # the config front end rejects NaN, so only a programmatic spec gets
    # here; the datum is checked before cfl_dt reads the step table, so no
    # cast warning precedes the error
    spec = canonical_spec(u0={"id": "box", "params": {"height": float("nan"),
                                                      "a": -1.0, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    with pytest.raises(ValueError, match="field values must be finite"):
        solve_points([spec], grid, snapshots=2)


def test_checks_run_on_regs_without_a_step_table():
    # the k levels, the entropy battery (N1 form on) and the pair gaps read
    # the cell tables, the flux curve and the sources of the regs that
    # solve_points returns, never their released flux table
    spec = _mixed_sign_spec(coeff=SMOOTH, ell=2.0)
    grid = Grid1D(spec.x_lo, spec.x_hi, 64)
    runs, _, regs = solve_points([spec, dataclasses.replace(spec, u0=BOX)],
                                 grid, snapshots=64)
    assert regs[0].flux is None and spec.smooth_in_x
    ks = {f: k_samples(runs[0].U if f == "N1" else runs[0].V, regs[0],
                       space="u" if f == "N1" else "v") for f in FORMS}
    ev1, ev2 = (ResidualEvaluator(run, reg) for run, reg in zip(runs, regs))
    psis = battery_from_geometry(spec)
    rows = ev1.battery_report(FORMS, ks, psis).rows
    assert {form for form, *_ in rows} == set(FORMS)
    assert np.all(np.isfinite(pair_gap_battery("CONTRACTION", ev1, ev2, psis)))


# ---------------------------------------------------------------------------
# Ordering along the perturbation schedules
# ---------------------------------------------------------------------------


def test_monotone_in_m_ordering_within_tolerance():
    grid = Grid1D(-2.0, 2.0, 64)
    rep = sweep("m", _mixed_sign_spec(), grid, [1, 2, 4])
    assert rep.kind == "m"
    assert rep.meta["ordering"] == "increasing"
    # the held indices come from the spec; the swept one is not in meta
    assert (rep.meta["ell"], rep.meta["j"]) == (1.0, 16) and "m" not in rep.meta
    assert len(rep.schedule) == 3 and rep.n_pairs == 2
    assert all(d > 0 for d in rep.distances)
    assert rep.max_violation <= rep.tolerance
    vmax = max(s["v_abs_max"] for s in rep.summaries)
    assert rep.tolerance == pytest.approx(scheme_tol(grid.dx, [vmax]))
    # shared step: every run took the same number of steps
    assert len({s["n_steps"] for s in rep.summaries}) == 1


def test_monotone_in_m_sentinel_single_entry():
    # perturbation fully disabled: one run, empty pairwise report
    grid = Grid1D(-2.0, 2.0, 48)
    rep = sweep("m", canonical_spec(u0=TWOLOBE, ell=INF), grid, [INF])
    assert len(rep.schedule) == 1 and rep.n_pairs == 0
    assert rep.meta["ell"] == INF
    assert rep.distances == [] and rep.violation_counts == []
    assert rep.orders == [] and rep.max_violation == 0.0


def test_monotone_in_m_zero_datum_runs_identical():
    # the zero state is a fixed point of every schedule member, so the
    # sweep collapses to bit-identical runs
    grid = Grid1D(-2.0, 2.0, 48)
    rep = sweep("m", canonical_spec(u0={"id": "zero", "params": {}}), grid,
                [1, 2, 4])
    assert rep.distances == [0.0, 0.0]
    assert rep.violation_counts == [0, 0]
    assert rep.max_violation == 0.0
    assert rep.orders == [None]


def test_monotone_in_ell_mirror_direction():
    grid = Grid1D(-2.0, 2.0, 64)
    rep = sweep("ell", _mixed_sign_spec(), grid, [1, 2, 4])
    assert rep.kind == "ell"
    assert rep.meta["ordering"] == "decreasing"
    assert (rep.meta["m"], rep.meta["j"]) == (1.0, 16) and "ell" not in rep.meta
    assert all(d > 0 for d in rep.distances)
    assert rep.max_violation <= rep.tolerance


def test_monotone_in_ell_nonnegative_solutions_identical():
    # nonnegative data keep r^- = 0, where the perturbation does not depend
    # on ell at all, so the schedule runs coincide exactly
    grid = Grid1D(-2.0, 2.0, 64)
    spec = canonical_spec(source=SourceSpec("arctan", {"c": 1.0}),
                          u0={"id": "box", "params": {"height": 0.8, "a": -1.0, "b": 0.5}})
    rep = sweep("ell", spec, grid, [1, 2, 4])
    assert rep.distances == [0.0, 0.0]
    assert rep.violation_counts == [0, 0]
    assert rep.max_violation == 0.0


def test_monotone_violations_shrink_under_refinement():
    reps = [sweep("m", _mixed_sign_spec(), Grid1D(-2.0, 2.0, n), [1, 2, 4])
            for n in (48, 96)]
    assert reps[1].max_violation <= reps[0].max_violation
    assert reps[1].tolerance < reps[0].tolerance


# ---------------------------------------------------------------------------
# Graph-smoothing schedule
# ---------------------------------------------------------------------------


def test_j_schedule_smooth_theta_distances_tiny():
    # identity theta regularizes to the identity for every j, so runs
    # differ only at quadrature/roundoff level
    grid = Grid1D(-2.0, 2.0, 48)
    rep = sweep("j", canonical_spec(), grid, [4, 8, 16])
    assert rep.kind == "j"
    assert (rep.meta["ell"], rep.meta["m"]) == (1.0, 1.0) and "j" not in rep.meta
    assert rep.schedule == [4.0, 8.0, 16.0]
    assert rep.violation_counts == [] and rep.violation_maxima == []
    assert all(d <= 1e-5 for d in rep.distances)


def test_j_schedule_sign_jump_cauchy_ratios():
    grid = Grid1D(-2.0, 2.0, 64)
    spec = canonical_spec(theta_graph=MonotoneGraph.sign_plus_identity(),
                          u0=BOX)
    rep = sweep("j", spec, grid, [4, 8, 16, 32, 64])
    d = rep.distances
    assert all(b < a for a, b in zip(d, d[1:]))
    assert all(b / a <= 0.8 for a, b in zip(d, d[1:]))
    assert all(o is not None and o > 0 for o in rep.orders)


def test_j_schedule_zero_datum_distances_zero():
    grid = Grid1D(-2.0, 2.0, 48)
    rep = sweep("j", canonical_spec(u0={"id": "zero", "params": {}}), grid,
                [4, 16, 64])
    assert rep.distances == [0.0, 0.0]
    assert rep.orders == [None]


# ---------------------------------------------------------------------------
# Self-convergence under grid refinement
# ---------------------------------------------------------------------------


def _triple(n):
    return [Grid1D(-2.0, 2.0, n), Grid1D(-2.0, 2.0, 2 * n),
            Grid1D(-2.0, 2.0, 4 * n)]


def test_self_convergence_smooth_regime_first_order():
    order = self_convergence_order(canonical_spec(T=0.25), _triple(64))
    assert 0.7 <= order <= 1.3


def test_self_convergence_shock_regime():
    order = self_convergence_order(canonical_spec(u0=BOX), _triple(64))
    assert 0.5 <= order <= 1.0


def test_self_convergence_constant_inf_sentinel():
    spec = canonical_spec(flux=_zero_flux(),
                          u0={"id": "constant", "params": {"value": 0.5}},
                          ell=INF, m=INF)
    assert math.isinf(self_convergence_order(spec, _triple(64)))


def test_self_convergence_grid_validation():
    spec = canonical_spec()
    with pytest.raises(ValueError, match="exactly three"):
        self_convergence_order(spec, _triple(32)[:2])
    with pytest.raises(ValueError, match="halve dx"):
        self_convergence_order(spec, [Grid1D(-2.0, 2.0, 32),
                                      Grid1D(-2.0, 2.0, 48),
                                      Grid1D(-2.0, 2.0, 96)])
    with pytest.raises(ValueError, match="share the domain"):
        self_convergence_order(spec, [Grid1D(-2.0, 2.0, 32),
                                      Grid1D(-1.0, 2.0, 64),
                                      Grid1D(-1.0, 2.0, 128)])


# ---------------------------------------------------------------------------
# Reproducibility and serialization
# ---------------------------------------------------------------------------


def test_schedule_rerun_bit_identical():
    grid = Grid1D(-2.0, 2.0, 48)
    reps = [sweep("m", _mixed_sign_spec(), grid, [1, 2], snapshots=4)
            for _ in range(2)]
    assert reps[0].to_dict() == reps[1].to_dict()


def test_report_json_and_csv_round_trip(tmp_path):
    grid = Grid1D(-2.0, 2.0, 48)
    rep = sweep("m", _mixed_sign_spec(), grid, [1, 2, 4], snapshots=4)
    jpath = tmp_path / "report.json"
    rep.write_json(jpath)
    with open(jpath) as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(rep.to_dict()))
    assert loaded["kind"] == "m" and len(loaded["summaries"]) == 3

    cpath = tmp_path / "report.csv"
    rep.write_csv(cpath)
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair", "value_lo", "value_hi", "l1_distance",
                       "violations", "max_violation", "order"]
    assert len(rows) == 1 + rep.n_pairs
    assert float(rows[1][3]) == rep.distances[0]
    assert float(rows[1][6]) == rep.orders[0]
    assert rows[2][6] == ""
