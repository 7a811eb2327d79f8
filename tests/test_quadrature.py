"""The factored battery quadrature against the elementwise oracle.

Every test function is a product psi(t, x) = b_t(t) b_x(x), so the
quadrature of a field against psi is the bilinear form b_t^T G b_x and a
whole battery is evaluated from a few thin matmuls.  The oracle below is
the elementwise sum over the (slab, cell) grid with the psi matrices built
directly from the bump profile.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab.config import load_config
from balancelab.entropy import (FORMS, MIN_CELLS_PER_RADIUS,
                                MIN_SLABS_PER_RADIUS, ResidualEvaluator,
                                ResolutionError, TestFunction,
                                battery_from_geometry, k_samples, quadrature)
from balancelab.harness import solve_points
from balancelab.measures import (MeasureContext, estimate_young_measure,
                                 mv_residual_table)
from balancelab.solver import Grid1D
from conftest import psi_matrices

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _oracle(fields, psis, t, x, dx, slab):
    """dx slab sum(G1 psi_t + G2 psi_x + G3 psi) + dx sum(W0 psi(0, .)),
    one elementwise pass per psi."""
    out = []
    for psi in psis:
        P, Pt, Px = psi_matrices(psi, t, x)
        P0 = psi_matrices(psi, [0.0], x)[0][0]
        G1, G2, G3 = fields[:3]
        res = dx * slab * float(np.sum(G1 * Pt) + np.sum(G2 * Px) + np.sum(G3 * P))
        if len(fields) == 4:
            res += dx * float(np.sum(fields[3] * P0))
        out.append(res)
    return np.asarray(out)


@st.composite
def problems(draw):
    """A grid, random fields, a block shape and a battery whose psis draw
    their time and space factors from small pools, so centres and radii
    are shared, distinct or duplicated; some supports reach t = 0."""
    n_slabs, n_cells = draw(st.integers(16, 72)), draw(st.integers(16, 160))
    T, x_lo, x_hi = 0.5, -2.0, 2.0
    slab, dx = T / n_slabs, (x_hi - x_lo) / n_cells
    block = draw(st.sampled_from([(1, 1), None]))
    if block is None:
        block = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    need_t = max(MIN_SLABS_PER_RADIUS, block[0]) * slab
    need_x = max(MIN_CELLS_PER_RADIUS, block[1]) * dx

    def pool(lo, hi, need, size):
        return [(draw(st.floats(lo, hi)), draw(st.floats(need, max(need, 0.6 * (hi - lo)))))
                for _ in range(size)]

    t_pool = pool(-0.1 * T, 1.1 * T, need_t, draw(st.integers(1, 4)))
    x_pool = pool(x_lo, x_hi, need_x, draw(st.integers(1, 4)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(t_pool) - 1),
                                    st.integers(0, len(x_pool) - 1)),
                          min_size=1, max_size=12))
    psis = [TestFunction(t_pool[a][0], x_pool[b][0], t_pool[a][1], x_pool[b][1])
            for a, b in picks]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = [rng.standard_normal((n_slabs, n_cells)) for _ in range(3)]
    if draw(st.booleans()):
        fields.append(rng.standard_normal(n_cells))
    t = (np.arange(n_slabs) + 0.5) * slab
    x = x_lo + (np.arange(n_cells) + 0.5) * dx
    return tuple(fields), psis, t, x, dx, slab, block


@seed(20140408)
@settings(max_examples=200, deadline=None)
@given(problems())
def test_battery_matches_elementwise_oracle(problem):
    fields, psis, t, x, dx, slab, block = problem
    got = quadrature(fields, psis, t, x, dx, slab, block)
    want = _oracle(fields, psis, t, x, dx, slab)
    assert got.shape == (len(psis),)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("block, message", [
    ((1, 1), "test function support unresolved: radius (0.2, 0.05) needs at "
             "least 8 cells and 8 slabs per radius; use n_cells >= 640 and "
             "snapshots >= 20"),
    ((4, 4), "test function support unresolved on the macro-grid: radius "
             "(0.2, 0.05) needs at least 8 cells and 8 slabs per radius; use "
             "n_cells >= 640 and snapshots >= 20; the largest macro shape "
             "that resolves it on this grid is [25, 0]"),
])
def test_one_unresolved_psi_rejects_the_battery(block, message):
    # the resolution check runs on every psi before any arithmetic: the
    # fields are never touched
    t = (np.arange(64) + 0.5) * 0.5 / 64
    x = -2.0 + (np.arange(64) + 0.5) / 16
    good = TestFunction(0.25, 0.0, 0.2, 1.0)
    bad = TestFunction(0.25, 0.0, 0.2, 0.05)
    with pytest.raises(ResolutionError) as err:
        quadrature(None, [good, bad, good], t, x, 1 / 16, 0.5 / 64, block)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Columns built once per battery, against one quadrature call per level
# ---------------------------------------------------------------------------


def _shipped(name):
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
    grid = Grid1D(cfg.problem.x_lo, cfg.problem.x_hi, cfg.grid_sizes[0])
    return cfg, grid, battery_from_geometry(cfg.problem, **cfg.battery)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def smooth_evaluator():
    cfg, grid, psis = _shipped("het_smooth_coeff")
    (run,), _, (reg,) = solve_points([cfg.problem], grid, cfg.snapshots)
    return ResidualEvaluator(run, reg), psis


def test_battery_report_equals_one_quadrature_per_level(smooth_evaluator):
    ev, psis = smooth_evaluator
    forms = list(FORMS)
    ks = {form: k_samples(ev.run.U if form == "N1" else ev.run.V, ev.reg,
                          space="u" if form == "N1" else "v")
          for form in forms}
    report = ev.battery_report(forms, ks, psis)
    want = []
    for form in forms:
        for k in ks[form]:
            want.extend(quadrature(ev.terms(form, k), psis, ev.t_mid, ev.x,
                                   ev.dx, ev.slab))
    assert [r[:3] for r in report.rows] == [
        (f, float(k), p.label) for f in forms for k in ks[f] for p in psis]
    np.testing.assert_array_equal(_bits([r[3] for r in report.rows]),
                                  _bits(want))


def test_kept_columns_follow_a_new_battery(smooth_evaluator):
    ev, psis = smooth_evaluator
    k = float(np.median(ev.V))
    ev.residual("SGN", k, psis)
    other = [dataclasses.replace(p, r_x=1.1 * p.r_x) for p in psis[::2]]
    for battery in (other, psis):
        np.testing.assert_array_equal(
            _bits(ev.residual("SGN", k, battery)),
            _bits(quadrature(ev.terms("SGN", k), battery, ev.t_mid, ev.x,
                             ev.dx, ev.slab)))


def test_unresolved_psi_raises_from_battery_report_as_from_quadrature(
        smooth_evaluator):
    ev, psis = smooth_evaluator
    k = float(np.median(ev.V))
    bad = psis[:1] + [dataclasses.replace(psis[0], r_x=2.0 * ev.dx)]
    with pytest.raises(ResolutionError) as want:
        quadrature(ev.terms("SGN", k), bad, ev.t_mid, ev.x, ev.dx, ev.slab)
    ev.battery_report(["SGN"], [k], psis)  # the resolved columns are kept
    for _ in range(2):  # and a rejected battery keeps none
        with pytest.raises(ResolutionError) as got:
            ev.battery_report(["SGN"], [k], bad)
        assert str(got.value) == str(want.value)


def test_mv_residual_table_equals_one_quadrature_per_level():
    cfg, grid, psis = _shipped("arctan_damped")
    specs = [dataclasses.replace(cfg.problem, j=int(j))
             for j in cfg.schedules["j"]]
    runs, _, regs = solve_points(specs, grid, snapshots=cfg.snapshots)
    ym = estimate_young_measure(runs)
    ctx = MeasureContext(ym, regs[-1])
    mus = k_samples(ym.values, regs[-1], space="v")
    for gamma in (0.0, 0.1):
        rows = mv_residual_table(ctx, mus, psis, gamma)
        want = [res for sign in ("PLUS", "MINUS") for mu in mus
                for res in quadrature(ctx.terms(sign, mu, gamma), psis,
                                      ym.times, ym.centers, ym.dx, ym.slab,
                                      block=ctx.block_shape)]
        np.testing.assert_array_equal(_bits([r[3] for r in rows]),
                                      _bits(want))
