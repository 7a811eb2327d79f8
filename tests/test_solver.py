"""Solver tests: stability caps, the monotone interface flux, conservation,
order preservation, and classical closed-form oracles.

The shock and rarefaction runs are checked against the exact entropy
solution of the inviscid Burgers equation with box datum (rarefaction fan
from the left edge, plateau, shock of speed 1/2 from the right edge); the
regularization indices are pushed high enough there that the regularized
equation is within grid resolution of the classical one.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab.flux import FluxCurve
from balancelab.monotone import (MonotoneGraph, ThetaRegularization,
                                 regularize_theta)
from balancelab.problem import SourceSpec
from balancelab.solver import (
    Grid1D,
    SolverError,
    cfl_dt,
    regularized,
    run_to_csv,
    solve,
    step,
)
from conftest import canonical_spec

INF = float("inf")


def _burgers_box_exact(x, t, a, b):
    # Oracle: exact entropy solution of u_t + (u^2/2)_x = 0 with datum
    # 1_[a,b], valid while the fan has not caught the shock (t < 2(b-a)):
    # fan (x-a)/t on [a, a+t], plateau 1 up to the shock at b + t/2.
    x = np.asarray(x, dtype=float)
    u = np.zeros_like(x)
    fan = (x > a) & (x < a + t)
    u[fan] = (x[fan] - a) / t
    u[(x >= a + t) & (x < b + 0.5 * t)] = 1.0
    return u


def _classical_spec(**kw):
    """Near-classical regime: huge j, perturbation off, zero source."""
    base = dict(j=10 ** 6, ell=INF, m=INF)
    base.update(kw)
    return canonical_spec(**base)


def _zero_flux():
    return FluxCurve.from_function(lambda v: np.zeros_like(np.asarray(v, dtype=float)), -4.0, 4.0)


def _linear_flux():
    return FluxCurve.from_function(lambda v: np.asarray(v, dtype=float), -4.0, 4.0)


# ---------------------------------------------------------------------------
# Grid and initial-state plumbing
# ---------------------------------------------------------------------------


def test_grid_geometry():
    g = Grid1D(-2.0, 2.0, 8)
    assert g.dx == 0.5
    assert np.allclose(g.centers, -2.0 + 0.5 * (np.arange(8) + 0.5))
    assert np.allclose(g.interfaces, -2.0 + 0.5 * np.arange(9))
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 8)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 2)


def test_solve_nonfinite_initial_state_raises():
    # the config front end rejects NaN, so only a programmatic spec gets here
    spec = canonical_spec(u0={"id": "box", "params": {"height": float("nan"),
                                                      "a": -1.0, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    # rejected before any table lookup, so no cast warning precedes the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            solve(spec, grid, snapshots=2)


# ---------------------------------------------------------------------------
# CFL time step
# ---------------------------------------------------------------------------


def test_cfl_burgers_example():
    # 0.45 * 0.01 / 1 = 0.0045: max |dF/du| = 1 when the state spans [0, 1]
    # and the composition is within rounding of the raw Burgers flux.
    spec = _classical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -1.0, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 400)
    assert grid.dx == pytest.approx(0.01, abs=1e-15)
    reg = regularized(spec, grid)
    u = spec.initial_values(grid.centers, grid.dx)
    dt = cfl_dt(u, reg)
    assert dt == pytest.approx(0.0045, rel=5e-3)


def test_cfl_zero_flux_zero_source_caps_at_dx():
    spec = _classical_spec(flux=_zero_flux())
    grid = Grid1D(spec.x_lo, spec.x_hi, 40)
    reg = regularized(spec, grid)
    u = spec.initial_values(grid.centers, grid.dx)
    dt = cfl_dt(u, reg)
    assert dt == grid.dx


def test_cfl_stiff_source_cap():
    # dt * Lip(source) <= 1/2 with Lip = 100 gives exactly 1/200.
    spec = _classical_spec(flux=_zero_flux(),
                           source=SourceSpec("linear", {"c": 100.0}))
    grid = Grid1D(spec.x_lo, spec.x_hi, 40)
    reg = regularized(spec, grid)
    u = spec.initial_values(grid.centers, grid.dx)
    dt = cfl_dt(u, reg)
    assert dt == pytest.approx(1.0 / 200.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Interface flux
# ---------------------------------------------------------------------------


def interface_flux(uL, uR, x_iface, spec, grid=None, reg=None):
    """Numerical flux of a single interface, located by position."""
    if reg is None:
        if grid is None:
            grid = Grid1D(spec.x_lo, spec.x_hi, 64)
        reg = regularized(spec, grid)
    k = int(np.argmin(np.abs(reg.grid.interfaces - x_iface)))
    n_if = len(reg.grid.interfaces)
    value, _ = reg.numerical_flux(np.full(n_if, float(uL)),
                                  np.full(n_if, float(uR)))
    return float(value[k])


def test_interface_flux_consistency():
    # Identity A and theta: the regularized theta is the identity exactly
    # (affine pieces mollify exactly and the rescale undoes the Yosida
    # shrinkage), so the flux at equal states is the state itself.
    spec = canonical_spec(flux=_linear_flux(), j=16)
    got = interface_flux(0.3, 0.3, 0.0, spec)
    assert got == pytest.approx(0.3, abs=1e-13)


def test_interface_flux_identity_jump_is_zero():
    # 0.5 (F(0) + F(1)) - 0.5 * a * (1 - 0) = 0 when a equals the uniform
    # slope of the affine composed flux (exact up to table rounding noise).
    spec = canonical_spec(flux=_linear_flux(), j=16)
    assert interface_flux(0.0, 1.0, 0.0, spec) == pytest.approx(0.0, abs=1e-12)


def test_interface_flux_zero_flux():
    spec = canonical_spec(flux=_zero_flux(), j=16)
    assert interface_flux(-0.4, 0.9, 0.0, spec) == 0.0


def test_interface_mean_coefficient_row():
    # pwc coefficient 1 -> 2 across x = 0: the interface on the break uses
    # the mean 1.5, and theta_hat(1) = 1.25 * 1.5 / (1 + 0.25 * 1.5) = 15/11
    # there (identity graph, affine mollification exact, u = 1 a table node).
    # Under the linear flux A(v) = v the interface's flux row is theta_hat.
    spec = canonical_spec(coeff={"kind": "pwc", "x_breaks": [0.0], "region_c": [1.0, 2.0]},
                          flux=_linear_flux(), j=16)
    grid = Grid1D(spec.x_lo, spec.x_hi, 64)
    reg = regularized(spec, grid)
    k = int(np.argmin(np.abs(grid.interfaces - 0.0)))
    got = reg.flux(reg.if_rows[k:k + 1], np.asarray([1.0]))[0]
    assert got == pytest.approx(15.0 / 11.0, abs=1e-12)



def test_regularized_smooth_retains_three_tables():
    # the theta and flux tables are what a smooth 512-cell problem keeps
    # before its first step: the flux rows are composed over the interface
    # theta rows they are read from, and the flux's range queries gather
    # slope cells from its samples, with no |slope| table of their own.
    # The flux table is evaluated in row blocks, so the build never holds
    # interpolation temporaries of a whole table on top of three tables.
    spec = canonical_spec(coeff={"kind": "smooth", "a": 1.0, "b": 0.3, "k": 1.0, "phase": 0.5})
    grid = Grid1D(spec.x_lo, spec.x_hi, 512)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reg = regularized(spec, grid)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_table = (grid.n_cells + 1) * reg.n_samples * 8
    assert current - base <= 2.5 * one_table
    assert peak - base <= 4.5 * one_table
    c = spec.coefficient(grid.centers)
    c_if = np.concatenate([c[:1], 0.5 * (c[:-1] + c[1:]), c[-1:]])
    iface = regularize_theta(spec.theta_graph, c_if[:, None], [1.0], spec.j,
                             -spec.sample_radius, spec.sample_radius)
    assert np.array_equal(reg.if_rows, iface.cell_rows)
    assert np.array_equal(reg.flux.values, reg.curve(0, iface.table))
    # a query over the whole sample range reaches every slope cell
    assert reg.flux.max_abs_slope(reg.flux.lo, reg.flux.hi) == reg.flux.lipschitz


def test_smooth_run_holds_two_tables_after_its_steps():
    # a smooth 512-cell problem: the build peaks below three tables, since
    # the flux is written over the interface theta table, and after cfl_dt
    # and ten steps the run still holds only its theta and flux tables (no
    # |slope| table is left behind by the range queries)
    spec = canonical_spec(coeff={"kind": "smooth", "a": 1.0, "b": 0.3, "k": 1.0, "phase": 0.5})
    grid = Grid1D(spec.x_lo, spec.x_hi, 512)
    u = spec.initial_values(grid.centers, grid.dx)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reg = regularized(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
        dt = cfl_dt(u, reg)
        for _ in range(10):
            u = step(u, dt, 0.0, reg)[0]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    one_table = (grid.n_cells + 1) * reg.n_samples * 8
    assert peak - base <= 3.0 * one_table
    assert held - base <= 2.2 * one_table
    assert np.isfinite(u).all()


# ---------------------------------------------------------------------------
# Single explicit Euler step
# ---------------------------------------------------------------------------


def test_step_constant_interior_unchanged():
    spec = _classical_spec(j=16)
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    reg = regularized(spec, grid)
    u = np.full(32, 0.6)
    out = step(u, 1e-3, 0.0, reg)[0]
    assert np.array_equal(out[1:-1], u[1:-1])
    assert out[0] != 0.6 and out[-1] != 0.6


def test_step_ode_decay_factor():
    # Zero flux and f = -u: forward Euler multiplies by (1 - dt).
    spec = canonical_spec(flux=_zero_flux(), ell=INF, m=INF,
                          source=SourceSpec("linear", {"c": 1.0}))
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    reg = regularized(spec, grid)
    u = spec.initial_values(grid.centers, grid.dx)
    out = step(u, 0.01, 0.0, reg)[0]
    assert np.allclose(out, u * (1.0 - 0.01), rtol=1e-14, atol=1e-16)


def test_step_single_cell_mass():
    spec = _classical_spec(j=16)
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    reg = regularized(spec, grid)
    u = np.zeros(32)
    u[16] = 1.0
    out = step(u, 1e-3, 0.0, reg)[0]
    assert abs(np.sum(out) * grid.dx - np.sum(u) * grid.dx) < 1e-13


def test_step_zero_source_adds_a_positive_zero():
    # the zero source adds dt * 0 to every cell, as an array of zeros would:
    # x + 0.0 turns a -0.0 cell whose flux difference vanishes into 0.0
    spec = _classical_spec(j=16)
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    reg = regularized(spec, grid)
    u = np.zeros(32)
    u[::3] = -0.0
    u[14:18] = [0.25, -0.5, 0.75, 0.125]
    dt = 1e-3
    u_ext = np.zeros(34)
    u_ext[1:-1] = u
    flux, _ = reg.numerical_flux(u_ext[:-1], u_ext[1:])
    want = u - (dt / grid.dx) * (flux[1:] - flux[:-1]) + dt * np.zeros(32)
    got = step(u, dt, 0.0, reg)[0]
    assert np.signbit(u).sum() > 4 and not np.signbit(want[:10]).any()
    assert got.tobytes() == want.tobytes()


def test_step_monotone_ordering():
    spec = canonical_spec(source=SourceSpec("arctan", {"c": 1.0}), ell=2.0, m=2.0, j=16)
    grid = Grid1D(spec.x_lo, spec.x_hi, 64)
    reg = regularized(spec, grid)
    x = grid.centers
    ua = 0.8 * np.sin(3.0 * x)
    ub = ua + 0.3 * (1.0 + np.cos(x)) / 2.0
    dt = min(cfl_dt(ua, reg), cfl_dt(ub, reg))
    oa = step(ua, dt, 0.1, reg)[0]
    ob = step(ub, dt, 0.1, reg)[0]
    assert float(np.min(ob - oa)) >= -1e-13


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_solve_zero_fixed_point():
    spec = canonical_spec(u0={"id": "zero", "params": {}},
                          source=SourceSpec("arctan", {"c": 1.0}), ell=2.0, m=3.0)
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    res = solve(spec, grid, snapshots=4)
    assert np.all(res.U == 0.0)
    assert np.all(res.V == 0.0)


def test_solve_ode_decay_run():
    spec = canonical_spec(flux=_zero_flux(), ell=INF, m=INF,
                          source=SourceSpec("linear", {"c": 1.0}))
    grid = Grid1D(spec.x_lo, spec.x_hi, 64)
    res = solve(spec, grid, snapshots=4)
    u0 = spec.initial_values(grid.centers, grid.dx)
    factor = np.prod(1.0 - res.dt_history)
    assert np.allclose(res.final_u, u0 * factor, rtol=1e-12, atol=1e-15)
    # first-order agreement with the exact exponential decay
    err = np.max(np.abs(res.final_u - u0 * math.exp(-spec.T)))
    assert err <= 0.03 * np.max(np.abs(u0))
    assert res.max_drift < 1e-12


def test_solve_burgers_shock_speed():
    # Box datum on [-0.75, 0]: the right edge is a shock of speed 1/2, so
    # the 0.5-level crossing sits at x = T/2 = 0.25 up to O(dx).
    spec = _classical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 256)
    res = solve(spec, grid, snapshots=4)
    u = res.final_u
    idx = np.where(u >= 0.5)[0][-1]
    x0, x1 = grid.centers[idx], grid.centers[idx + 1]
    pos = x0 + (u[idx] - 0.5) / (u[idx] - u[idx + 1]) * (x1 - x0)
    assert abs(pos - 0.25) <= 2.5 * grid.dx


def test_solve_burgers_rarefaction_l1():
    # L1 error against the exact fan/plateau/shock profile decreases with
    # at least O(dx^0.45) observed order.
    spec = _classical_spec(T=0.4, u0={"id": "box", "params": {"height": 1.0, "a": -0.5, "b": 1.2}})
    errs = []
    for n in (64, 128, 256):
        grid = Grid1D(spec.x_lo, spec.x_hi, n)
        res = solve(spec, grid, snapshots=2)
        exact = _burgers_box_exact(grid.centers, spec.T, -0.5, 1.2)
        errs.append(grid.dx * float(np.sum(np.abs(res.final_u - exact))))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 0.45
    assert errs[2] < 0.05


def test_solve_conservation_maxprinciple_consistency():
    spec = _classical_spec(j=16, u0={"id": "box", "params": {"height": 1.0, "a": -1.0, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 128)
    reg = regularized(spec, grid)
    res = solve(spec, grid, snapshots=6, reg=reg)
    # per-step conservation (zero source, far field never reached)
    assert np.max(np.abs(np.diff(res.mass_history))) < 1e-12
    assert res.max_drift < 1e-12
    # maximum principle snapshot to snapshot
    sup = np.max(np.abs(res.U), axis=1)
    assert np.all(np.diff(sup) <= 1e-14)
    # companion values stay consistent with the tables
    assert np.array_equal(res.V[-1], reg.theta.v_of_u(res.final_u))
    # realized CFL numbers stay near the target: rounding-level overshoots
    # of u past 1.0 can pull one extra slope cell into the speed bracket
    assert float(np.max(res.cfl_history)) <= 0.46
    assert abs(float(np.sum(res.dt_history)) - spec.T) < 1e-12


def test_solve_l1_contraction_and_comparison():
    src = SourceSpec("arctan", {"c": 1.0})
    spec_a = canonical_spec(u0={"id": "box", "params": {"height": 0.6, "a": -1.0, "b": 0.5}},
                            source=src, ell=2.0, m=2.0)
    spec_b = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -1.2, "b": 0.7}},
                            source=src, ell=2.0, m=2.0)
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 96)
    reg = regularized(spec_a, grid)
    ua = spec_a.initial_values(grid.centers, grid.dx)
    ub = spec_b.initial_values(grid.centers, grid.dx)
    dt = min(cfl_dt(ua, reg), cfl_dt(ub, reg))
    res_a = solve(spec_a, grid, snapshots=5, dt_override=dt, reg=reg)
    res_b = solve(spec_b, grid, snapshots=5, dt_override=dt, reg=reg)
    assert np.array_equal(res_a.times, res_b.times)
    Ua, Ub = res_a.U, res_b.U
    slack = res_a.n_steps * 1e-12
    # nested data stay ordered
    assert float(np.min(ub - ua)) >= 0.0
    assert float(np.min(Ub - Ua)) >= -slack
    # L1 distance is nonincreasing along the run
    dists = [grid.dx * float(np.sum(np.abs(ua - ub)))]
    dists += [grid.dx * float(np.sum(np.abs(Ua[s] - Ub[s]))) for s in range(Ua.shape[0])]
    assert np.all(np.diff(dists) <= slack)


@seed(20140414)
@settings(max_examples=25, deadline=None)
@given(
    graph=st.sampled_from(["identity", "sign_plus_identity"]),
    coeff=st.sampled_from([
        {"kind": "const"},
        {"kind": "pwc", "x_breaks": [0.1], "region_c": [1.0, 2.0]},
        {"kind": "smooth", "a": 1.5, "b": 0.5, "k": 1.0, "phase": 0.0},
    ]),
    source=st.sampled_from([("zero", {}), ("arctan", {"c": 1.0}),
                            ("linear", {"c": 1.0})]),
    height=st.floats(-1.5, 1.5),
    j=st.sampled_from([2, 16]),
    n_cells=st.integers(8, 40),
    snapshots=st.integers(1, 5),
)
def test_every_snapshot_row_keeps_v_consistent(graph, coeff, source, height,
                                               j, n_cells, snapshots):
    spec = canonical_spec(theta_graph=getattr(MonotoneGraph, graph)(),
                          coeff=coeff, source=SourceSpec(*source), j=j,
                          ell=2.0, m=2.0, T=0.2,
                          u0={"id": "box", "params": {"height": height,
                                                      "a": -1.0, "b": 0.5}})
    grid = Grid1D(spec.x_lo, spec.x_hi, n_cells)
    reg = regularized(spec, grid)
    res = solve(spec, grid, snapshots=snapshots, reg=reg)
    assert res.U.shape == res.V.shape == (snapshots + 1, n_cells)
    assert np.array_equal(res.times[-1], spec.T)
    for k in range(snapshots + 1):
        assert np.array_equal(res.V[k], reg.theta.v_of_u(res.U[k]))


@pytest.mark.parametrize("ell, m", [(INF, INF), (2.0, INF), (INF, 2.0)])
def test_v_formed_per_step_only_with_the_perturbation_on(monkeypatch, ell, m):
    # v = theta_j(u) is read per step only by phi_{l,m}; with l = m = inf it
    # is formed once per snapshot row and nowhere else
    spec = canonical_spec(source=SourceSpec("arctan", {"c": 1.0}), ell=ell, m=m)
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    reg = regularized(spec, grid)
    calls = []
    v_of_u = ThetaRegularization.v_of_u

    def counted(self, u):
        calls.append(np.shape(u))
        return v_of_u(self, u)

    monkeypatch.setattr(ThetaRegularization, "v_of_u", counted)
    res = solve(spec, grid, snapshots=3, reg=reg)
    per_step = 0 if ell == m == INF else res.n_steps
    assert res.n_steps > 3
    assert len(calls) == len(res.times) + per_step
    assert set(calls) == {(grid.n_cells,)}


def _reference_ledger(spec, grid, snapshots, reg):
    """solve's run record, rebuilt from ``step`` in the plainest form:
    (mass history, max drift, CFL history, boundary max, final u)."""
    u = spec.initial_values(grid.centers, grid.dx)
    dt_base = cfl_dt(u, reg)
    slab = spec.T / snapshots
    targets = [(k + 0.5) * slab for k in range(snapshots)] + [spec.T]
    eps = 1e-12 * max(spec.T, 1.0)
    mass = float(np.sum(u)) * grid.dx
    masses, cfls, drift = [mass], [], 0.0
    edge = float(np.max(np.abs(np.concatenate([u[:2], u[-2:]]))))
    t = 0.0
    for target in targets:
        while target - t > eps:
            dt = min(dt_base, target - t)
            u, flux, src, a = step(u, dt, t, reg)
            t += dt
            new_mass = float(np.sum(u)) * grid.dx
            # the source summed as one value per cell, whether step returned
            # an array or the zero source's scalar
            expected = mass - dt * (float(flux[-1]) - float(flux[0])) \
                + dt * grid.dx * float(np.sum(src * np.ones(grid.n_cells)))
            drift = max(drift, abs(new_mass - expected))
            mass = new_mass
            cfls.append(dt * float(np.max(a)) / grid.dx)
            masses.append(mass)
            edge = max(edge, float(np.max(np.abs(np.concatenate([u[:2], u[-2:]])))))
        t = target
    return np.array(masses), drift, np.array(cfls), edge, u


@seed(20140420)
@settings(max_examples=30, deadline=None)
@given(
    source=st.sampled_from([("zero", {}), ("arctan", {"c": 1.0}),
                            ("linear", {"c": 0.5})]),
    ell_m=st.sampled_from([(INF, INF), (2.0, 3.0)]),
    coeff=st.sampled_from([{"kind": "const"},
                           {"kind": "smooth", "a": 1.5, "b": 0.5, "k": 1.0,
                            "phase": 0.0}]),
    datum=st.sampled_from(["box", "bump"]),
    height=st.floats(-1.5, 1.5),
    a=st.floats(-2.6, 1.6),
    width=st.floats(0.2, 1.5),
    n_cells=st.integers(8, 40),
    snapshots=st.integers(1, 4),
)
def test_solve_bookkeeping_matches_a_plain_step_loop(source, ell_m, coeff,
                                                     datum, height, a, width,
                                                     n_cells, snapshots):
    # the mass ledger, CFL history, boundary max and warnings of solve are
    # those of a loop over step, bit for bit; data near or over either end
    # of the domain reach the boundary cells
    spec = canonical_spec(source=SourceSpec(*source), ell=ell_m[0], m=ell_m[1],
                          coeff=coeff, T=0.3,
                          u0={"id": datum, "params": {"height": height, "a": a,
                                                      "b": a + width}})
    grid = Grid1D(spec.x_lo, spec.x_hi, n_cells)
    reg = regularized(spec, grid)
    res = solve(spec, grid, snapshots=snapshots, reg=reg)
    masses, drift, cfls, edge, u = _reference_ledger(spec, grid, snapshots, reg)
    assert res.mass_history.tobytes() == masses.tobytes()
    assert res.cfl_history.tobytes() == cfls.tobytes()
    assert np.float64(res.max_drift).tobytes() == np.float64(drift).tobytes()
    assert np.float64(res.boundary_max).tobytes() == np.float64(edge).tobytes()
    assert res.final_u.tobytes() == u.tobytes()
    reached = ["state reached the boundary cells (max %.3e); enlarge the domain"
               % edge] if edge > 1e-12 else []
    assert res.warnings == reached


def test_solve_deterministic_rerun():
    spec = canonical_spec(source=SourceSpec("arctan", {"c": 0.5}), ell=2.0, m=2.0)
    grid = Grid1D(spec.x_lo, spec.x_hi, 48)
    r1 = solve(spec, grid, snapshots=3)
    r2 = solve(spec, grid, snapshots=3)
    assert np.array_equal(r1.final_u, r2.final_u)
    assert json.dumps(r1.metadata(), sort_keys=True) == json.dumps(r2.metadata(), sort_keys=True)


def test_solve_blowup_raises():
    spec = canonical_spec(flux=_zero_flux(), ell=INF, m=INF, T=10.0,
                          source=SourceSpec("antilinear_test", {"c": 100.0}),
                          u0={"id": "box", "params": {"height": 1.0, "a": -1.0, "b": 1.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 8)
    with pytest.raises(SolverError):
        solve(spec, grid, snapshots=2)


def test_solve_initial_radius_guard():
    spec = canonical_spec(u0={"id": "box", "params": {"height": 3.0, "a": -1.0, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 32)
    with pytest.raises(ValueError):
        solve(spec, grid, snapshots=2)


def test_jump_flux_run_smoke():
    # Heaviside-type flux absorbed into theta: the run stays in [0, 1],
    # conserves mass, and keeps v consistent in the plateau-filled variable.
    flux = FluxCurve.from_pieces(lambda v: (np.asarray(v) >= 0).astype(float),
                                 [(0.0, 0.0, 1.0)], -4.0, 4.0)
    spec = canonical_spec(flux=flux, j=16, ell=INF, m=INF, x_lo=-3.0, x_hi=3.0,
                          T=0.3, u0={"id": "box", "params": {"height": 1.0, "a": -1.0, "b": 0.0}})
    grid = Grid1D(spec.x_lo, spec.x_hi, 96)
    reg = regularized(spec, grid)
    assert reg.par is not None
    res = solve(spec, grid, snapshots=3, reg=reg)
    assert np.max(np.abs(np.diff(res.mass_history))) < 1e-12
    assert float(res.final_u.min()) >= -1e-12
    assert float(res.final_u.max()) <= 1.0 + 1e-12
    assert np.array_equal(res.V[-1], reg.theta.v_of_u(res.final_u))


def test_run_csv_and_metadata(tmp_path):
    spec = canonical_spec()
    grid = Grid1D(spec.x_lo, spec.x_hi, 24)
    res = solve(spec, grid, snapshots=3)
    path = tmp_path / "run.csv"
    run_to_csv(res, path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (4 * 24, 4)
    assert np.allclose(np.unique(table[:, 0]), res.times)
    meta = json.loads(json.dumps(res.metadata()))
    assert meta["n_steps"] == res.n_steps
    assert len(meta["dt_history"]) == res.n_steps
    assert meta["conservation"]["max_step_drift"] <= 1e-12
