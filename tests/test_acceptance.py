"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Every test prints a single CRITERION line (PASS or FAIL with the measured
numbers) before asserting, so the suite output doubles as the acceptance
record.  Grids stay at desk scale (at most 4096 cells) and each criterion
runs in seconds.
"""

import dataclasses
import filecmp
import json
import math
import os

import numpy as np
import pytest

from balancelab.cli import main
from balancelab.config import load_config
from balancelab.entropy import (ResidualEvaluator, battery_from_geometry,
                                k_samples, l1_distance_curve)
from balancelab.harness import (j_schedule_run, monotone_in_ell_check,
                                monotone_in_m_check, scheme_tol, solve_points)
from balancelab.measures import (MeasureContext, averaged_contraction_gap,
                                 dirac_estimate, estimate_young_measure)
from balancelab.monotone import (MonotoneGraph, Table,
                                 check_inverse_convergence, resolvent, yosida)
from balancelab.solver import Field, Grid1D, cfl_dt, regularized, solve
from conftest import _oracle_arctan_inverse_errors, random_monotone_graph

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _config_path(name):
    return os.path.join(CONFIG_DIR, name + ".json")


def _spec(name):
    return load_config(_config_path(name)).problem


def _report(number, ok, detail):
    print("CRITERION %d: %s  %s" % (number, "PASS" if ok else "FAIL", detail))
    return ok


def _shared_dt(pairs, grid):
    dts = []
    for spec, reg in pairs:
        u0 = spec.initial_values(grid.centers, grid.dx)
        dts.append(cfl_dt(Field(u0, reg.v_of_u(u0)), spec, grid, reg=reg))
    return min(dts)


def _scaled_u0(u0, scale):
    uid = u0["id"]
    params = dict(u0.get("params", {}))
    key = "value" if uid == "constant" else "height"
    params[key] = float(params[key]) * scale
    return {"id": uid, "params": params}


# ---------------------------------------------------------------------------
# 1. Resolvent / Yosida operator suite
# ---------------------------------------------------------------------------


def test_criterion_1_monotone_operator_suite():
    # 10^4 seeded (graph, lambda, w) cases; the four operator laws must hold
    # with zero violations beyond 1e-10
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(10_000):
        graph = random_monotone_graph(rng)
        lam = float(10.0 ** rng.uniform(-3.0, 1.0))
        w1, w2 = (float(v) for v in rng.uniform(-5.0, 5.0, size=2))
        r1, r2 = resolvent(graph, lam, w1), resolvent(graph, lam, w2)
        y1 = yosida(graph, lam, w1)
        # nonexpansive resolvent
        worst = max(worst, abs(r1 - r2) - abs(w1 - w2))
        # Yosida transform is (1/lam)-Lipschitz
        worst = max(worst, abs(y1 - yosida(graph, lam, w2))
                    - abs(w1 - w2) / lam)
        # consistency: the Yosida value is a selection of the graph at the
        # resolvent point
        lo, hi = graph.value_interval(r1)
        worst = max(worst, lo - y1, y1 - hi)
        # |yosida| grows toward the minimal selection as lambda shrinks
        y_half = yosida(graph, 0.5 * lam, w1)
        worst = max(worst, abs(y1) - abs(y_half))
        worst = max(worst, abs(y_half) - abs(graph.minimal_selection(w1)))
    ok = worst <= 1e-10
    assert _report(1, ok, "max violation %.3e over 10^4 cases (bound 1e-10)"
                   % worst)


# ---------------------------------------------------------------------------
# 2. Convergence of inverses for the arctan approximations of u + Sgn(u)
# ---------------------------------------------------------------------------

# Frozen: _oracle_arctan_inverse_errors(ns) from conftest.py, the bisection
# oracle sup|f_n^{-1} - f^{-1}| on [-2, 2] for f_n(u) = u + (2/pi) arctan(nu),
# n = 1, 2, 4, ..., 2048 (200 bisection steps on [-6, 6] against the
# closed-form limit inverse).
INVERSE_SUP_ERRORS = [
    0.6376330865576232,
    0.499388518406946,
    0.37406609252468903,
    0.2726566326330421,
    0.1957494414203546,
    0.13939603948839652,
    0.0988260863588521,
    0.06987900162803379,
    0.04931782585916805,
    0.034746363133827146,
    0.024431782231311316,
    0.017135142432985251,
]


def test_criterion_2_inverse_convergence_rate():
    # The sup distance to the inverse of u + Sgn(u) is attained at v = +-1,
    # where it is the root u* of u = (2/pi) arctan(1/(nu)); arctan x < x
    # gives u* < sqrt(2/(pi n)), and u* ~ sqrt(2/(pi n)) as n grows, so the
    # observed order per octave tends to 1/2.  The 0.02 target therefore
    # needs n of roughly 1600: the sequence runs to n = 2048 (bound 0.0176).
    ns = [2 ** k for k in range(12)]
    frozen = np.allclose(_oracle_arctan_inverse_errors(ns),
                         INVERSE_SUP_ERRORS, atol=2e-9)
    seq = [
        Table.from_function(
            lambda u, n=n: u + (2.0 / np.pi) * np.arctan(n * u), -3.0, 3.0,
            n=8193)
        for n in ns
    ]
    errors = check_inverse_convergence(
        seq, MonotoneGraph.sign_plus_identity(), (-2.0, 2.0))
    matches = np.allclose(errors, INVERSE_SUP_ERRORS, atol=5e-4)
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ratio = max(e * math.sqrt(math.pi * n / 2.0) for e, n in zip(errors, ns))
    orders = [math.log2(a / b) for a, b in zip(errors[-4:-1], errors[-3:])]
    half_order = all(abs(p - 0.5) <= 0.05 for p in orders)
    ok = (frozen and matches and decreasing and ratio < 1.0 and half_order
          and errors[-1] < 0.02)
    _report(2, ok, "frozen = oracle: %s; oracle match: %s; monotone "
            "decrease: %s; max error*sqrt(pi n/2): %.3f (bound 1); orders "
            "over the last 3 octaves: %s (1/2 +- 0.05); error at n=2048: "
            "%.4f (bound 0.02)"
            % (frozen, matches, decreasing, ratio,
               ", ".join("%.3f" % p for p in orders), errors[-1]))
    assert frozen
    assert matches
    assert decreasing
    assert ratio < 1.0, "an error exceeds its bound sqrt(2/(pi n))"
    assert half_order, "observed orders %s are not 1/2 +- 0.05" % orders
    assert errors[-1] < 0.02, (
        "sup-inverse error %.4f at n=2048 exceeds 0.02" % errors[-1])


# ---------------------------------------------------------------------------
# 3. Classical limit: Riemann waves of the quadratic flux
# ---------------------------------------------------------------------------


def _box_exact(x, t, a=-1.0, b=0.5, h=1.0):
    """Exact entropy solution of u_t + (u^2/2)_x = 0 from box data, before
    the rarefaction head meets the shock: fan at the left edge, shock of
    speed h/2 at the right edge."""
    u = np.zeros_like(x)
    fan = (x >= a) & (x <= a + h * t)
    u[fan] = (x[fan] - a) / t
    plateau = (x > a + h * t) & (x < b + 0.5 * h * t)
    u[plateau] = h
    return u


def test_criterion_3_burgers_riemann_waves():
    spec = _spec("burgers_riemann")
    grid = Grid1D(spec.x_lo, spec.x_hi, 2048)  # dx = 1/512
    result = solve(spec, grid, snapshots=4)
    u = result.final_u
    x = grid.centers
    exact = _box_exact(x, spec.T)

    # shock position: 0.5-level crossing of the right wave
    right = x > 0.0
    idx = np.where((u[right][:-1] >= 0.5) & (u[right][1:] < 0.5))[0]
    assert len(idx) == 1
    i = np.flatnonzero(right)[0] + idx[0]
    frac = (u[i] - 0.5) / (u[i] - u[i + 1])
    shock_pos = x[i] + frac * grid.dx
    shock_err = abs(shock_pos - (0.5 + 0.5 * spec.T))

    # rarefaction region error against the self-similar fan
    fan_window = x <= 0.2
    rare_l1 = grid.dx * float(np.abs(u - exact)[fan_window].sum())
    full_l1 = grid.dx * float(np.abs(u - exact).sum())

    ok = shock_err <= 2.0 * grid.dx and rare_l1 <= 0.02
    assert _report(
        3, ok, "shock error %.5f (bound %.5f); rarefaction L1 %.5f "
        "(bound 0.02); full-domain L1 %.5f"
        % (shock_err, 2.0 * grid.dx, rare_l1, full_l1))


# ---------------------------------------------------------------------------
# 4. Entropy residual battery on every shipped problem
# ---------------------------------------------------------------------------

SHIPPED = [
    "burgers_riemann",
    "burgers_smooth",
    "signjump_burgers",
    "het_smooth_coeff",
    "pwc_coeff",
    "linear_decay",
    "arctan_damped",
    "jumpflux_parametrize",
    "constant_state",
    "antidissipative_demo",
]


def _battery_min(cfg, n_cells):
    # snapshots scale with the grid so the residual quadrature refines
    # together with dx
    spec = cfg.problem
    grid = Grid1D(spec.x_lo, spec.x_hi, n_cells)
    reg = regularized(spec, grid)
    run = solve(spec, grid, snapshots=n_cells, reg=reg)
    ev = ResidualEvaluator(run, reg)
    _, _, V = run.snapshot_matrix()
    ks = k_samples(V, reg, n=cfg.k_policy["n"], space="v",
                   pad=cfg.k_policy["pad"])
    psis = battery_from_geometry(spec)
    forms = ["SEMI_PLUS", "SEMI_MINUS", "SGN", "N2"]
    ks_by_form = {form: ks for form in forms}
    if reg.field.smooth_in_x:
        forms.append("N1")
        _, U, _ = run.snapshot_matrix()
        ks_by_form["N1"] = k_samples(U, reg, n=cfg.k_policy["n"], space="u",
                                     pad=cfg.k_policy["pad"])
    report = ev.battery_report(forms, ks_by_form, psis)
    # the two one-sided forms must add up to the absolute-value form
    rows = {(r[0], r[1], r[2]): r[3] for r in report.rows}
    split_gap = max(
        abs(rows[("SEMI_PLUS", k, p)] + rows[("SEMI_MINUS", k, p)]
            - rows[("SGN", k, p)])
        for k in ks for p in (psi.label for psi in psis))
    return min(report.minima().values()), scheme_tol(grid.dx, V), split_gap


def test_criterion_4_entropy_battery_all_shipped():
    lines = []
    ok = True
    for name in SHIPPED:
        cfg = load_config(_config_path(name))
        min_c, tol_c, split_c = _battery_min(cfg, 64)
        min_f, tol_f, split_f = _battery_min(cfg, 128)
        ok &= min_c >= -tol_c and min_f >= -tol_f
        ok &= max(split_c, split_f) <= 1e-9
        if min_c < -1e-10:  # improvement is only measurable off the floor
            ok &= min_f >= min_c / 1.3
            lines.append("%s %.2e->%.2e" % (name, min_c, min_f))
        else:
            lines.append("%s floor" % name)
    assert _report(4, ok, "minima vs tol and 1.3x halving: " +
                   ", ".join(lines))


# ---------------------------------------------------------------------------
# 5. Contraction and comparison on five shipped pairs
# ---------------------------------------------------------------------------

PAIR_NAMES = ["burgers_riemann", "burgers_smooth", "het_smooth_coeff",
              "pwc_coeff", "linear_decay"]


def test_criterion_5_contraction_and_comparison_pairs():
    worst_growth = 0.0
    worst_order = 0.0
    ok = True
    for name in PAIR_NAMES:
        spec = _spec(name)
        grid = Grid1D(spec.x_lo, spec.x_hi, 64)
        partner = dataclasses.replace(spec, u0=_scaled_u0(spec.u0, 0.5))
        reg1, reg2 = regularized(spec, grid), regularized(partner, grid)
        dt = _shared_dt([(spec, reg1), (partner, reg2)], grid)
        run1 = solve(spec, grid, snapshots=8, dt_override=dt, reg=reg1)
        run2 = solve(partner, grid, snapshots=8, dt_override=dt, reg=reg2)
        _, dists = l1_distance_curve(run1, run2)
        growth = float(np.max(np.diff(dists)))
        worst_growth = max(worst_growth, growth)
        ok &= growth <= 1e-12 * run1.n_steps
        # data ordered at t=0 stay ordered in every cell of every snapshot
        _, U1, _ = run1.snapshot_matrix()
        _, U2, _ = run2.snapshot_matrix()
        order_gap = float(np.max(U2 - U1))
        worst_order = max(worst_order, order_gap)
        ok &= order_gap <= 1e-13
    assert _report(
        5, ok, "5 pairs: max distance-curve growth %.2e (slack 1e-12/step), "
        "max ordering gap %.2e (bound 1e-13)" % (worst_growth, worst_order))


# ---------------------------------------------------------------------------
# 6. Measure-valued consistency
# ---------------------------------------------------------------------------


def test_criterion_6_measure_valued_consistency():
    # (a) one-atom brackets collapse to single-run residuals
    spec = _spec("arctan_damped")
    grid = Grid1D(spec.x_lo, spec.x_hi, 64)
    reg = regularized(spec, grid)
    run = solve(spec, grid, snapshots=64, reg=reg)
    ym = dirac_estimate(run)
    ev = ResidualEvaluator(run, reg)
    ctx = MeasureContext(ym, reg)
    psis = battery_from_geometry(spec)[::4]
    collapse_gap = max(
        float(np.max(np.abs(ctx.residual(sign, mu, psis)
                            - ev.residual(form, mu, psis))))
        for sign, form in (("PLUS", "SEMI_PLUS"), ("MINUS", "SEMI_MINUS"))
        for mu in (-0.2, 0.1, 0.5))

    # (b) averaged contraction gap on j-schedule ensembles of a shipped
    # problem and its halved partner, pooled at one shared step
    base = _spec("linear_decay")
    partner = dataclasses.replace(base, u0=_scaled_u0(base.u0, 0.5))
    js = [4, 8, 16, 32]
    specs = [dataclasses.replace(base, j=j) for j in js] + \
            [dataclasses.replace(partner, j=j) for j in js]
    runs, _, _ = solve_points(specs, grid, snapshots=64)
    ym1 = estimate_young_measure(runs[:len(js)], macro=(4, 4))
    ym2 = estimate_young_measure(runs[len(js):], macro=(4, 4))
    reg_top = regularized(specs[len(js) - 1], grid)
    vmax = max(float(np.abs(r.snapshot_matrix()[2]).max()) for r in runs)
    tol = scheme_tol(grid.dx, [vmax])
    gaps = averaged_contraction_gap(ym1, ym2, battery_from_geometry(base),
                                    reg_top)
    gap_min = float(min(gaps))

    # (c) block weights are probability weights
    weight_gap = max(
        abs(float(w.sum()) - 1.0)
        for est in (ym1, ym2) for row in est.atoms for _, w in row)

    ok = collapse_gap <= 1e-9 and gap_min >= -tol and weight_gap <= 1e-12
    assert _report(
        6, ok, "collapse gap %.2e (bound 1e-9); min averaged gap %.2e "
        "(tol %.2e); weight defect %.2e (bound 1e-12)"
        % (collapse_gap, gap_min, tol, weight_gap))


# ---------------------------------------------------------------------------
# 7. Ordering in the perturbation indices
# ---------------------------------------------------------------------------


def test_criterion_7_perturbation_index_ordering():
    spec = _spec("arctan_damped")
    schedule = [1, 2, 4, 8]
    stats = {}
    for n in (48, 96):
        grid = Grid1D(spec.x_lo, spec.x_hi, n)
        rep_m = monotone_in_m_check(spec, grid, ell=2.0, m_schedule=schedule)
        rep_l = monotone_in_ell_check(spec, grid, ell_schedule=schedule,
                                      m=2.0)
        stats[n] = (max(rep_m.max_violation, rep_l.max_violation),
                    min(rep_m.tolerance, rep_l.tolerance))
    ok = all(v <= tol for v, tol in stats.values()) \
        and stats[96][0] <= stats[48][0]
    assert _report(
        7, ok, "violations: n=48 %.2e (tol %.2e), n=96 %.2e (tol %.2e), "
        "shrinking under halving: %s"
        % (stats[48][0], stats[48][1], stats[96][0], stats[96][1],
           stats[96][0] <= stats[48][0]))


# ---------------------------------------------------------------------------
# 8. Cauchy behavior of the regularization schedule on the sign-jump example
# ---------------------------------------------------------------------------


def test_criterion_8_j_schedule_cauchy_rate():
    spec = _spec("signjump_burgers")
    grid = Grid1D(spec.x_lo, spec.x_hi, 96)
    report = j_schedule_run(spec, grid, [4, 8, 16, 32, 64, 128, 256],
                            snapshots=8)
    d = np.asarray(report.distances)
    ratios = d[1:] / d[:-1]
    ok = bool(np.all(ratios <= 0.8))
    assert _report(
        8, ok, "pairwise L1 ratios per doubling: %s (bound 0.8 each)"
        % np.array2string(ratios, precision=3))


# ---------------------------------------------------------------------------
# 9. Conservation and determinism
# ---------------------------------------------------------------------------

RERUN_PLAN = [
    ("solve", "burgers_riemann"),
    ("verify", "constant_state"),
    ("converge", "constant_state"),
    ("ym", "constant_state"),
    ("parametrize", "jumpflux_parametrize"),
]


def test_criterion_9_conservation_and_determinism(tmp_path):
    # runs with zero right side (no source, perturbation off) conserve
    # mass to 1e-12 relative, step by step
    worst = 0.0
    for name in ("burgers_riemann", "burgers_smooth",
                 "jumpflux_parametrize", "constant_state"):
        spec = _spec(name)
        grid = Grid1D(spec.x_lo, spec.x_hi, 128)
        run = solve(spec, grid, snapshots=8)
        scale = max(abs(float(run.mass_history[0])), 1.0)
        drift = float(np.abs(np.diff(run.mass_history)).max()) / scale
        worst = max(worst, drift)
    mass_ok = worst <= 1e-12

    # every subcommand writes bit-identical artifacts on rerun
    identical = True
    for command, name in RERUN_PLAN:
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / ("%s_%s" % (command, tag))
            assert main([command, "--config", _config_path(name),
                         "--out", str(out), "--quiet"]) in (0, 1)
            dirs.append(str(out))
        names = sorted(os.listdir(dirs[0]))
        identical &= names == sorted(os.listdir(dirs[1])) and all(
            filecmp.cmp(os.path.join(dirs[0], f), os.path.join(dirs[1], f),
                        shallow=False) for f in names)

    ok = mass_ok and identical
    assert _report(
        9, ok, "max per-step relative mass drift %.2e (bound 1e-12); "
        "all 5 subcommands bit-identical on rerun: %s" % (worst, identical))
