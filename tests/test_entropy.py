"""Tests for entropy residuals, distance curves, and pair gaps."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from balancelab.entropy import (EntropyReport, ResidualEvaluator, TestFunction,
                                _columns, battery_from_geometry, bump_profile,
                                bump_profile_dy, k_samples,
                                l1_distance_curve, pair_gap_battery)
from balancelab.flux import FluxCurve
from balancelab.monotone import ThetaRegularization
from balancelab.problem import SourceSpec
from balancelab.solver import Grid1D, cfl_dt, regularized, solve
from conftest import canonical_spec, pair_gap

INF = float("inf")


def _zero_flux():
    return FluxCurve.from_function(lambda v: 0.0 * v, -4.0, 4.0)


def _run(spec, n, snapshots=64, dt_override=None, reg=None):
    grid = Grid1D(spec.x_lo, spec.x_hi, n)
    if reg is None:
        reg = regularized(spec, grid)
    res = solve(spec, grid, snapshots=snapshots, dt_override=dt_override, reg=reg)
    return res, reg


def _verification_tol(run):
    # the harness tolerance curve: 10 dx (1 + max |v|)
    return 10.0 * run.grid.dx * (1.0 + float(np.abs(run.V).max()))


def _shared_dt(spec_a, spec_b, grid, reg_a, reg_b):
    ua = spec_a.initial_values(grid.centers, grid.dx)
    ub = spec_b.initial_values(grid.centers, grid.dx)
    return min(cfl_dt(ua, reg_a), cfl_dt(ub, reg_b))


# ---------------------------------------------------------------------------
# Test functions and batteries
# ---------------------------------------------------------------------------


def test_bump_profile_shape_and_derivative():
    assert bump_profile(0.0) == pytest.approx(1.0)
    assert bump_profile(np.array([-1.0, 1.0, 2.5])) == pytest.approx([0.0, 0.0, 0.0])
    # oracle: central finite difference of the profile
    y = np.linspace(-0.95, 0.95, 41)
    h = 1e-6
    fd = (bump_profile(y + h) - bump_profile(y - h)) / (2 * h)
    assert np.max(np.abs(bump_profile_dy(y) - fd)) < 1e-6


def test_test_function_derivatives_match_finite_differences():
    # psi = b_t(t) b_x(x): the quadrature's factor columns of each axis and
    # their derivatives, which give psi_t = b_t' b_x and psi_x = b_t b_x'
    psi = TestFunction(0.25, 0.1, 0.2, 0.8)
    t = np.linspace(0.08, 0.42, 7)
    x = np.linspace(-0.6, 0.8, 9)
    h = 1e-6
    for y, key in ((t, (psi.t_center, psi.r_t)), (x, (psi.x_center, psi.r_x))):
        _, d, _ = _columns(y, [key])
        fd = (_columns(y + h, [key])[0] - _columns(y - h, [key])[0]) / (2 * h)
        assert np.max(np.abs(d - fd)) < 1e-5
    # compact support
    assert _columns(np.array([0.46]), [(psi.t_center, psi.r_t)])[0] == pytest.approx(0.0)
    assert _columns(np.array([-0.95, 0.95]), [(psi.x_center, psi.r_x)])[0] == \
        pytest.approx(0.0)


def test_standard_battery_layout():
    spec = canonical_spec()
    psis = battery_from_geometry(spec)
    assert len(psis) == 18
    assert len({p.label for p in psis}) == 18
    for p in psis:
        # interior in time and space, vanishing at t = 0 and t = T
        assert p.t_center - p.r_t >= 0.0
        assert p.t_center + p.r_t <= spec.T
        assert p.x_center - p.r_x >= spec.x_lo
        assert p.x_center + p.r_x <= spec.x_hi


def test_k_samples_levels():
    spec = canonical_spec()
    res, reg = _run(spec, 32, snapshots=8)
    V = res.V
    ks = k_samples(V, reg)
    assert len(ks) == 33
    assert ks[0] == pytest.approx(float(V.min()) - 0.5)
    assert ks[-1] == pytest.approx(float(V.max()) + 0.5)
    assert np.all(np.diff(ks) > 0)


# ---------------------------------------------------------------------------
# Scalar-form residuals
# ---------------------------------------------------------------------------


def _constant_run():
    spec = canonical_spec(flux=_zero_flux(),
                          u0={"id": "constant", "params": {"value": 0.5}},
                          ell=INF, m=INF)
    return _run(spec, 64, snapshots=64)


def test_constant_run_zero_residual_all_forms():
    # oracle: a state frozen at u = 0.5 with k at its transformed value makes
    # every integrand of every form vanish identically
    res, reg = _constant_run()
    ev = ResidualEvaluator(res, reg)
    k_v = float(reg.theta.v_of_u(0.5)[0])
    psis = battery_from_geometry(reg.spec)[::5]
    for form in ("SEMI_PLUS", "SEMI_MINUS", "SGN", "N2"):
        assert np.all(np.abs(ev.residual(form, k_v, psis)) <= 1e-8)
    assert np.all(np.abs(ev.residual("N1", 0.5, psis)) <= 1e-8)


@pytest.mark.parametrize("ell, m", [(2.0, 3.0), (INF, 2.0), (2.0, INF)])
def test_evaluator_reads_the_run_v_rows_for_the_perturbation(monkeypatch, ell, m):
    # with l or m finite the source term reads theta_j(u); the run already
    # holds those bits in V, so building the evaluator forms no v of its own
    spec = canonical_spec(source=SourceSpec("arctan", {"c": 0.8}), ell=ell, m=m,
                          coeff={"kind": "smooth", "a": 1.5, "b": 0.5, "k": 1.0,
                                 "phase": 0.0})
    res, reg = _run(spec, 32, snapshots=6)
    want = np.array([reg.source_values(t, res.U[s])
                     for s, t in enumerate(res.times[:-1])])
    calls = []
    v_of_u = ThetaRegularization.v_of_u

    def counted(self, u):
        calls.append(np.shape(u))
        return v_of_u(self, u)

    monkeypatch.setattr(ThetaRegularization, "v_of_u", counted)
    ev = ResidualEvaluator(res, reg)
    assert calls == []
    assert ev.f_cells.tobytes() == want.tobytes()


def test_semi_forms_vanish_beyond_state_range():
    # oracle: for k above (below) the whole state range the positive parts
    # and indicator factors of SEMI_PLUS (SEMI_MINUS) are identically zero
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}})
    res, reg = _run(spec, 96, snapshots=64)
    ev = ResidualEvaluator(res, reg)
    V = res.V
    psis = battery_from_geometry(spec)[:1]
    assert abs(ev.residual("SEMI_PLUS", float(V.max()) + 0.4, psis)[0]) <= 1e-8
    assert abs(ev.residual("SEMI_MINUS", float(V.min()) - 0.4, psis)[0]) <= 1e-8


def test_sgn_is_sum_of_semi_forms():
    # the modulus form must equal the sum of the two one-sided forms up to
    # floating-point regrouping of the same quadrature terms
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}},
                          source=SourceSpec("arctan", {"c": 0.8}), ell=2.0, m=2.0)
    res, reg = _run(spec, 96, snapshots=64)
    ev = ResidualEvaluator(res, reg)
    V = res.V
    ks = k_samples(V, reg, n=7)
    psis = battery_from_geometry(spec)[::4]
    for k in ks:
        lhs = ev.residual("SEMI_PLUS", k, psis) + ev.residual("SEMI_MINUS", k, psis)
        assert np.all(np.abs(lhs - ev.residual("SGN", k, psis)) <= 1e-9)


def test_shock_battery_sgn_above_tolerance_curve():
    # entropy compliance of the shock-forming run: the worst battery residual
    # sits above -tol(dx), and the measured violation constant transfers to
    # the refined grid
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}})
    minima = {}
    for n in (128, 256):
        res, reg = _run(spec, n, snapshots=64)
        ev = ResidualEvaluator(res, reg)
        V = res.V
        ks = k_samples(V, reg)
        report = ev.battery_report(("SGN",), {"SGN": ks},
                                   battery_from_geometry(spec))
        assert len(report.rows) == len(ks) * 18
        worst = report.minima()["SGN"]
        assert worst >= -_verification_tol(res)
        minima[n] = worst
    c_coarse = max(1.0, -min(0.0, minima[128]) / (4.0 / 128))
    assert minima[256] >= -c_coarse * (4.0 / 256) - 1e-12


def test_u_space_and_v_space_forms_agree_for_plain_coefficients():
    # with an x-independent single-valued nonlinearity the u-space form and
    # the transformed form coincide after mapping the level k through theta
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}},
                          source=SourceSpec("arctan", {"c": 0.6}), ell=2.0, m=2.0)
    res, reg = _run(spec, 128, snapshots=64)
    ev = ResidualEvaluator(res, reg)
    psis = battery_from_geometry(spec)[::4]
    for k_u in (-0.3, 0.2, 0.55, 0.9):
        k_v = float(reg.theta.v_of_u(k_u)[0])
        diff = ev.residual("N1", k_u, psis) - ev.residual("N2", k_v, psis)
        assert np.all(np.abs(diff) <= 1e-6)


def test_u_space_form_rejects_discontinuous_coefficients():
    spec = canonical_spec(coeff={"kind": "pwc", "x_breaks": [0.0], "region_c": [1.0, 2.0]})
    res, reg = _run(spec, 64, snapshots=64)
    ev = ResidualEvaluator(res, reg)
    with pytest.raises(ValueError, match="smooth"):
        ev.residual("N1", 0.3, battery_from_geometry(spec)[:1])


def test_unresolved_support_is_rejected_with_hint():
    spec = canonical_spec()
    psis = battery_from_geometry(spec)[:1]
    res, reg = _run(spec, 128, snapshots=8)
    with pytest.raises(ValueError, match="snapshots >="):
        ResidualEvaluator(res, reg).residual("SGN", 0.1, psis)
    res, reg = _run(spec, 16, snapshots=64)
    with pytest.raises(ValueError, match="unresolved"):
        ResidualEvaluator(res, reg).residual("SGN", 0.1, psis)


def test_unknown_form_rejected():
    res, reg = _constant_run()
    ev = ResidualEvaluator(res, reg)
    with pytest.raises(ValueError, match="form"):
        ev.residual("MODULUS", 0.0, battery_from_geometry(reg.spec)[:1])


# ---------------------------------------------------------------------------
# Pair gaps and distance curves
# ---------------------------------------------------------------------------


def test_pair_gap_identical_runs_is_zero():
    spec = canonical_spec(source=SourceSpec("arctan", {"c": 0.5}), ell=2.0, m=2.0)
    res1, reg = _run(spec, 64, snapshots=64)
    res2, _ = _run(spec, 64, snapshots=64, reg=reg)
    psi = battery_from_geometry(spec)[7]
    for kind in ("CONTRACTION", "COMPARISON"):
        assert abs(pair_gap(kind, res1, res2, reg, reg, psi)) <= 1e-10


def test_pair_gap_contraction_nonnegative():
    src = SourceSpec("arctan", {"c": 1.0})
    spec_a = canonical_spec(u0={"id": "box", "params": {"height": 0.6, "a": -1.0, "b": 0.5}},
                            source=src, ell=2.0, m=2.0)
    spec_b = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -1.2, "b": 0.7}},
                            source=src, ell=2.0, m=2.0)
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 128)
    reg_a = regularized(spec_a, grid)
    reg_b = regularized(spec_b, grid)
    dt = _shared_dt(spec_a, spec_b, grid, reg_a, reg_b)
    res_a = solve(spec_a, grid, snapshots=64, dt_override=dt, reg=reg_a)
    res_b = solve(spec_b, grid, snapshots=64, dt_override=dt, reg=reg_b)
    tol = max(_verification_tol(res_a), _verification_tol(res_b))
    psis = battery_from_geometry(spec_a)
    gaps = pair_gap_battery("CONTRACTION", ResidualEvaluator(res_a, reg_a),
                            ResidualEvaluator(res_b, reg_b), psis)
    assert float(np.min(gaps)) >= -tol


def test_pair_gap_comparison_of_ordered_data_vanishes():
    # oracle: order preservation keeps u1 <= u2 for nested data, so every
    # positive-part factor of the comparison form is identically zero
    src = SourceSpec("arctan", {"c": 1.0})
    spec_a = canonical_spec(u0={"id": "box", "params": {"height": 0.6, "a": -1.0, "b": 0.5}},
                            source=src, ell=2.0, m=2.0)
    spec_b = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -1.2, "b": 0.7}},
                            source=src, ell=2.0, m=2.0)
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 96)
    reg_a = regularized(spec_a, grid)
    reg_b = regularized(spec_b, grid)
    dt = _shared_dt(spec_a, spec_b, grid, reg_a, reg_b)
    res_a = solve(spec_a, grid, snapshots=64, dt_override=dt, reg=reg_a)
    res_b = solve(spec_b, grid, snapshots=64, dt_override=dt, reg=reg_b)
    gaps = pair_gap_battery("COMPARISON", ResidualEvaluator(res_a, reg_a),
                            ResidualEvaluator(res_b, reg_b),
                            battery_from_geometry(spec_a))
    assert float(np.max(np.abs(gaps))) <= 1e-10


def test_pair_gap_distinct_sources_nonnegative():
    spec_a = canonical_spec(source=SourceSpec("arctan", {"c": 1.0}), ell=2.0, m=2.0)
    spec_b = canonical_spec(source=SourceSpec("arctan", {"c": 1.3}), ell=2.0, m=2.0)
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 96)
    reg_a = regularized(spec_a, grid)
    reg_b = regularized(spec_b, grid)
    dt = _shared_dt(spec_a, spec_b, grid, reg_a, reg_b)
    res_a = solve(spec_a, grid, snapshots=64, dt_override=dt, reg=reg_a)
    res_b = solve(spec_b, grid, snapshots=64, dt_override=dt, reg=reg_b)
    tol = max(_verification_tol(res_a), _verification_tol(res_b))
    gaps = pair_gap_battery("CONTRACTION", ResidualEvaluator(res_a, reg_a),
                            ResidualEvaluator(res_b, reg_b),
                            battery_from_geometry(spec_a))
    assert float(np.min(gaps)) >= -tol


def test_pair_gap_mismatched_runs_rejected():
    spec = canonical_spec()
    res1, reg1 = _run(spec, 64, snapshots=16)
    res2, reg2 = _run(spec, 96, snapshots=16)
    psi = battery_from_geometry(spec)[0]
    with pytest.raises(ValueError, match="grids"):
        pair_gap("CONTRACTION", res1, res2, reg1, reg2, psi)
    res3, reg3 = _run(spec, 64, snapshots=8)
    with pytest.raises(ValueError, match="snapshot"):
        pair_gap("CONTRACTION", res1, res3, reg1, reg3, psi)
    with pytest.raises(ValueError, match="kind"):
        pair_gap("L1", res1, res1, reg1, reg1, psi)
    res4, reg4 = _run(canonical_spec(j=4), 64, snapshots=16)
    with pytest.raises(ValueError, match="identical flux and theta tables"):
        pair_gap("CONTRACTION", res1, res4, reg1, reg4, psi)


def test_l1_curve_identical_runs_zero():
    spec = canonical_spec()
    res1, reg = _run(spec, 64, snapshots=16)
    res2, _ = _run(spec, 64, snapshots=16, reg=reg)
    _, vals = l1_distance_curve(res1, res2)
    assert np.max(vals) == 0.0


def test_l1_curve_linear_source_decay_oracle():
    # oracle: with zero flux and source f = -u, each cell follows the linear
    # decay ODE, so the distance of two constant states is
    # |c1 - c2| (x_hi - x_lo) e^{-t}; at T = 0.5 this is
    # 0.5 * 4 * e^{-0.5} = 1.2130613194252668
    kw = dict(flux=_zero_flux(),
              source=SourceSpec("linear", {"c": 1.0}), ell=INF, m=INF)
    spec_a = canonical_spec(u0={"id": "constant", "params": {"value": 0.8}}, **kw)
    spec_b = canonical_spec(u0={"id": "constant", "params": {"value": 0.3}}, **kw)
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 2048)
    assert grid.dx == pytest.approx(1.0 / 512)
    reg_a = regularized(spec_a, grid)
    reg_b = regularized(spec_b, grid)
    dt = _shared_dt(spec_a, spec_b, grid, reg_a, reg_b)
    res_a = solve(spec_a, grid, snapshots=8, dt_override=dt, reg=reg_a)
    res_b = solve(spec_b, grid, snapshots=8, dt_override=dt, reg=reg_b)
    times, vals = l1_distance_curve(res_a, res_b)
    expected = 0.5 * 4.0 * np.exp(-times)
    assert np.max(np.abs(vals / expected - 1.0)) <= 0.02
    assert vals[-1] == pytest.approx(1.2130613194252668, rel=0.02)


def test_l1_curve_nonincreasing_without_source():
    spec_a = canonical_spec(u0={"id": "box", "params": {"height": 0.6, "a": -1.0, "b": 0.5}})
    spec_b = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -1.2, "b": 0.7}})
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 128)
    reg_a = regularized(spec_a, grid)
    reg_b = regularized(spec_b, grid)
    dt = _shared_dt(spec_a, spec_b, grid, reg_a, reg_b)
    res_a = solve(spec_a, grid, snapshots=32, dt_override=dt, reg=reg_a)
    res_b = solve(spec_b, grid, snapshots=32, dt_override=dt, reg=reg_b)
    _, vals = l1_distance_curve(res_a, res_b)
    assert np.all(np.diff(vals) <= 1e-10)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_entropy_report_serialization(tmp_path):
    spec = canonical_spec()
    res, reg = _run(spec, 64, snapshots=64)
    ev = ResidualEvaluator(res, reg)
    V = res.V
    ks = k_samples(V, reg, n=5)
    psis = battery_from_geometry(spec)[:4]
    report = ev.battery_report(("SEMI_PLUS", "SGN"),
                               {"SEMI_PLUS": ks, "SGN": ks}, psis)
    assert len(report.rows) == 2 * len(ks) * 4
    minima = report.minima()
    assert set(minima) == {"SEMI_PLUS", "SGN"}

    jpath = tmp_path / "report.json"
    report.write_json(jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded == json.loads(json.dumps(report.to_dict()))
    assert loaded["grid"]["n_cells"] == 64

    cpath = tmp_path / "report.csv"
    report.write_csv(cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "form,k,psi_id,residual"
    assert len(lines) == 1 + len(report.rows)
    form, k, psi_id, residual = lines[1].split(",")
    assert form == "SEMI_PLUS"
    assert float(k) == report.rows[0][1]
    assert float(residual) == report.rows[0][3]


def test_battery_report_per_form_levels():
    res, reg = _constant_run()
    ev = ResidualEvaluator(res, reg)
    psis = battery_from_geometry(reg.spec)[:2]
    ks = {"SGN": np.array([0.1, 0.2]), "N1": np.array([0.3])}
    report = ev.battery_report(("SGN", "N1"), ks, psis)
    assert [r[0] for r in report.rows] == ["SGN"] * 4 + ["N1"] * 2


def test_battery_report_keeps_one_level_live():
    # memory guard: the battery walks its (form, k) levels one at a time and
    # keeps only the last level's fields, so the traced peak stays below a
    # fixed number of (slab, cell) fields however many levels it walks
    # (caching every level would hold three fields per level)
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}},
                          source=SourceSpec("arctan", {"c": 0.8}), ell=2.0, m=2.0)
    res, reg = _run(spec, 128, snapshots=64)
    ev = ResidualEvaluator(res, reg)
    forms = ("SEMI_PLUS", "SEMI_MINUS", "SGN", "N1", "N2")
    ks = np.linspace(-0.5, 1.5, 6)
    field_bytes = ev.U.nbytes
    tracemalloc.start()
    try:
        report = ev.battery_report(forms, {form: ks for form in forms},
                                   battery_from_geometry(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == len(forms) * len(ks) * 18
    assert peak < 8 * field_bytes, peak / field_bytes


def test_report_rejects_nonfinite():
    report = EntropyReport({"n_cells": 4})
    with pytest.raises(ValueError, match="finite"):
        report.append("SGN", 0.0, "p", float("nan"))
