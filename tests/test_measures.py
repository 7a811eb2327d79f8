"""Tests for Young-measure estimation and measure-valued diagnostics."""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab.entropy import (ResidualEvaluator, ResolutionError,
                               battery_from_geometry, pair_gap_battery)
from balancelab.flux import FluxCurve
from balancelab.harness import solve_points
from balancelab.measures import (MeasureContext, YoungMeasureEstimate,
                                 _merge_sorted, _scans,
                                 averaged_contraction_gap,
                                 chi_gamma_above, chi_gamma_below,
                                 default_support_radius,
                                 estimate_young_measure,
                                 mu_is_atom, mv_residual_table,
                                 support_and_trace_check, write_mv_table_csv)
from balancelab.monotone import MonotoneGraph
from balancelab.problem import SourceSpec, perturbation
from balancelab.solver import Grid1D, cfl_dt, regularized, solve
from conftest import canonical_spec, psi_matrices

INF = float("inf")


def mv_entropy_residual(sign, ym, mu, psi, reg, gamma=0.0):
    """One-call, one-psi form of ``MeasureContext.residual`` (build a
    context for batteries; it caches the per-block ingredients)."""
    return MeasureContext(ym, reg).residual(sign, mu, [psi], gamma=gamma)[0]


def _dirac(run):
    """Degenerate estimate with one fine sample per block: the collapse
    construction under which every measure bracket reduces to the single
    run's own residual integrand."""
    return estimate_young_measure([run], macro=(1, 1), min_samples=1)


def _atoms(ym):
    """Every block's atom values, as one flat array."""
    return np.concatenate([v for row in ym.atoms for v, _ in row])


def _zero_flux():
    return FluxCurve.from_function(lambda v: 0.0 * v, -4.0, 4.0)


def _run(spec, n=64, snapshots=64, dt_override=None, reg=None):
    grid = Grid1D(spec.x_lo, spec.x_hi, n)
    if reg is None:
        reg = regularized(spec, grid)
    res = solve(spec, grid, snapshots=snapshots, dt_override=dt_override, reg=reg)
    return res, reg


def _constant_spec(value, **kw):
    return canonical_spec(flux=_zero_flux(),
                          u0={"id": "constant", "params": {"value": value}},
                          ell=INF, m=INF, **kw)


def _shared_dt(spec_a, spec_b, grid, reg_a, reg_b):
    ua = spec_a.initial_values(grid.centers, grid.dx)
    ub = spec_b.initial_values(grid.centers, grid.dx)
    return min(cfl_dt(ua, reg_a), cfl_dt(ub, reg_b))


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def test_estimate_single_constant_run_is_dirac():
    res, reg = _run(_constant_spec(0.5))
    ym = estimate_young_measure([res])
    c = float(reg.theta.v_of_u(0.5)[0])
    assert ym.n_t_blocks == 8 and ym.n_x_blocks == 8
    for bt in range(ym.n_t_blocks):
        for bx in range(ym.n_x_blocks):
            vals, wts = ym.atoms[bt][bx]
            assert len(vals) == 1
            assert vals[0] == pytest.approx(c, abs=1e-12)
            assert wts[0] == 1.0


def test_estimate_two_constants_half_weights():
    res1, _ = _run(_constant_spec(0.8))
    res2, _ = _run(_constant_spec(0.3))
    ym = estimate_young_measure([res1, res2])
    for bt in range(ym.n_t_blocks):
        for bx in range(ym.n_x_blocks):
            vals, wts = ym.atoms[bt][bx]
            assert len(vals) == 2
            assert wts == pytest.approx([0.5, 0.5])
            assert abs(float(wts.sum()) - 1.0) <= 1e-12


def test_estimate_merges_identical_samples():
    res, reg = _run(_constant_spec(0.5))
    ym = estimate_young_measure([res, res])
    vals, wts = ym.atoms[0][0]
    assert len(vals) == 1 and wts[0] == 1.0


def test_estimate_rejects_sparse_blocks_and_mixed_grids():
    res, _ = _run(_constant_spec(0.5), n=64, snapshots=64)
    with pytest.raises(ValueError, match="samples"):
        estimate_young_measure([res], macro=(2, 2))
    other, _ = _run(_constant_spec(0.5), n=96, snapshots=64)
    with pytest.raises(ValueError, match="grids"):
        estimate_young_measure([res, other])
    short, _ = _run(_constant_spec(0.5), n=64, snapshots=32)
    with pytest.raises(ValueError, match="times"):
        estimate_young_measure([res, short])
    with pytest.raises(ValueError, match="at least one"):
        estimate_young_measure([])


def test_atom_spread_shrinks_with_regularization_index():
    # oracle: for a constant state the pooled atoms of a j-pair sit exactly
    # at the two transformed values, so the spread is their distance, which
    # shrinks as the transforms converge; a slope-2 graph keeps the
    # transforms genuinely j-dependent (slope-1 branches reproduce exactly)
    spreads = {}
    for label, js in (("early", (4, 8)), ("late", (64, 128))):
        ensemble = [_run(_constant_spec(
            0.8, j=j, theta_graph=MonotoneGraph.line(2.0)))[0] for j in js]
        ym = estimate_young_measure(ensemble)
        spreads[label] = max(float(v.max() - v.min())
                             for row in ym.atoms for v, _ in row)
    assert 0.0 < spreads["late"] < spreads["early"]


def _merge_sequential(vals, merge_tol):
    """The sample-by-sample clustering that _merge_sorted replaced: a sample
    more than merge_tol above the running cluster start opens a cluster."""
    n = len(vals)
    starts = [0]
    for i in range(1, n):
        if vals[i] - vals[starts[-1]] > merge_tol:
            starts.append(i)
    starts.append(n)
    out_v = np.empty(len(starts) - 1)
    out_w = np.empty(len(starts) - 1)
    for a in range(len(starts) - 1):
        chunk = vals[starts[a]:starts[a + 1]]
        out_v[a] = float(chunk.mean())
        out_w[a] = len(chunk) / n
    return out_v, out_w


@st.composite
def sorted_samples(draw):
    """A merge tolerance and sorted samples built from gaps: exact repeats,
    chains of gaps just below the tolerance (whose running span crosses it
    after a few steps) and wide gaps that leave lone samples."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.0]))
    unit = max(tol, 1e-9)
    gap = st.one_of(st.just(0.0),
                    st.floats(0.3, 1.0).map(lambda f: f * tol),
                    st.floats(1.5, 1e3).map(lambda f: f * unit))
    gaps = draw(st.lists(gap, max_size=80))
    base = draw(st.floats(-3.0, 3.0))
    return np.cumsum([base] + gaps), tol


@seed(20140408)
@settings(max_examples=300, deadline=None)
@given(sorted_samples())
def test_merge_matches_sequential_clustering(sample):
    vals, tol = sample
    got_v, got_w = _merge_sorted(vals, tol)
    want_v, want_w = _merge_sequential(vals, tol)
    assert np.array_equal(got_v, want_v) and np.array_equal(got_w, want_w)


def _scans_by_hand(x, counts):
    """Each unit's sums past every cut, one Python float addition at a
    time: from the bottom for ``below`` and from the top for ``above``."""
    below = np.zeros((x.shape[0], x.shape[1] + len(counts)))
    above = np.zeros_like(below)
    start = 0
    for s, n in enumerate(counts):
        slot = start + s
        for q in range(x.shape[0]):
            row = [float(v) for v in x[q, start:start + n]]
            acc = None
            for k in range(n):
                acc = row[k] if acc is None else acc + row[k]
                below[q, slot + k + 1] = acc
            acc = None
            for k in reversed(range(n)):
                acc = row[k] if acc is None else acc + row[k]
                above[q, slot + k] = acc
        start += n
    return below, above


@st.composite
def scan_rows(draw):
    """Five rows of units of 0 to 50 entries, many of one entry; half the
    entries are +-0.0, +-1e300 or +-1e-300, so a change of summation order
    shows in the bits."""
    counts = draw(st.lists(st.one_of(st.just(1), st.integers(0, 50)),
                           min_size=1, max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(counts)
    special = rng.choice([-0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300], (5, n))
    x = np.where(rng.random((5, n)) < 0.5, special, rng.normal(size=(5, n)))
    return x, np.array(counts, dtype=int)


@seed(20140412)
@settings(max_examples=200, deadline=None)
@given(scan_rows())
def test_scans_match_sequential_sums_bit_for_bit(rows):
    x, counts = rows
    for got, want in zip(_scans(x, counts), _scans_by_hand(x, counts)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_estimate_weight_validation():
    res, _ = _run(_constant_spec(0.5))
    ym = estimate_young_measure([res])
    bad = [[(np.array([0.1, 0.2]), np.array([0.6, 0.6]))]]
    with pytest.raises(ValueError, match="sum to 1"):
        YoungMeasureEstimate(times=ym.times[:1], centers=ym.centers[:1],
                             dx=ym.dx, slab=ym.slab,
                             t_idx_edges=np.array([0, 1]),
                             x_idx_edges=np.array([0, 1]), atoms=bad)
    # the brackets sum over the atoms past a level, so values must ascend
    unsorted = [[(np.array([0.2, 0.1]), np.array([0.5, 0.5]))]]
    with pytest.raises(ValueError, match=r"block \(0, 0\) must be ascending"):
        YoungMeasureEstimate(times=ym.times[:1], centers=ym.centers[:1],
                             dx=ym.dx, slab=ym.slab,
                             t_idx_edges=np.array([0, 1]),
                             x_idx_edges=np.array([0, 1]), atoms=unsorted)


# ---------------------------------------------------------------------------
# Measure-valued residuals
# ---------------------------------------------------------------------------


def _box_source_run(n=64):
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}},
                          source=SourceSpec("arctan", {"c": 1.0}), ell=2.0, m=2.0)
    return _run(spec, n=n, snapshots=64)


def test_dirac_collapse_matches_single_run_residuals():
    # one-atom brackets must reduce to the single-run residual integrands
    res, reg = _box_source_run()
    ym = _dirac(res)
    ev = ResidualEvaluator(res, reg)
    ctx = MeasureContext(ym, reg)
    psis = battery_from_geometry(reg.spec)[::7]
    for mu in (-0.1, 0.25, 0.6):
        assert ctx.residual("PLUS", mu, psis) == pytest.approx(
            ev.residual("SEMI_PLUS", mu, psis), abs=1e-9)
        assert ctx.residual("MINUS", mu, psis) == pytest.approx(
            ev.residual("SEMI_MINUS", mu, psis), abs=1e-9)


def test_mv_plus_vanishes_above_all_atoms():
    res, reg = _box_source_run()
    ym = estimate_young_measure([res])
    top = max(float(v.max()) for row in ym.atoms for v, _ in row)
    psi = battery_from_geometry(reg.spec)[0]
    assert abs(mv_entropy_residual("PLUS", ym, top + 0.3, psi, reg)) <= 1e-9
    with pytest.raises(ValueError, match="sign"):
        mv_entropy_residual("BOTH", ym, 0.0, psi, reg)


def test_two_atom_residual_is_average_of_diracs():
    # oracle: brackets are linear in the measure, so the two-constant pool
    # equals the half-half average of the single-run evaluations
    res1, reg = _run(_constant_spec(0.8))
    res2, _ = _run(_constant_spec(0.3))
    ym = estimate_young_measure([res1, res2])
    d1 = _dirac(res1)
    d2 = _dirac(res2)
    psi = battery_from_geometry(reg.spec)[3]
    for mu in (0.2, 0.5):
        for sign in ("PLUS", "MINUS"):
            pooled = mv_entropy_residual(sign, ym, mu, psi, reg)
            split = 0.5 * (mv_entropy_residual(sign, d1, mu, psi, reg)
                           + mv_entropy_residual(sign, d2, mu, psi, reg))
            assert pooled == pytest.approx(split, abs=1e-9)


def test_mv_residual_resolution_guard():
    res, reg = _box_source_run()
    ym = estimate_young_measure([res], macro=(32, 8))
    psi = battery_from_geometry(reg.spec)[0]
    with pytest.raises(ResolutionError, match="macro"):
        mv_entropy_residual("PLUS", ym, 0.2, psi, reg)


def test_chi_gamma_profiles():
    lam = np.array([-0.5, 0.0, 0.2, 0.25, 0.3, 0.5])
    sharp = chi_gamma_above(lam, 0.2, 0.0)
    assert sharp == pytest.approx([0, 0, 0, 1, 1, 1])
    ramp = chi_gamma_above(lam, 0.2, 0.1)
    assert ramp == pytest.approx([0, 0, 0, 0.5, 1, 1])
    ramp_neg = chi_gamma_above(np.array([-0.35, -0.3, -0.25, -0.2]), -0.2, 0.1)
    assert ramp_neg == pytest.approx([0, 0, 0.5, 1.0])
    sharp_b = chi_gamma_below(lam, 0.2, 0.0)
    assert sharp_b == pytest.approx([1, 1, 0, 0, 0, 0])
    ramp_b = chi_gamma_below(lam, 0.2, 0.1)
    assert ramp_b == pytest.approx([1, 1, 1, 0.5, 0, 0])
    ramp_b_neg = chi_gamma_below(np.array([-0.35, -0.3, -0.25, -0.2]), -0.2, 0.1)
    assert ramp_b_neg == pytest.approx([1, 1, 0.5, 0])


def test_chi_gamma_ordering_for_dissipative_source():
    # the smoothed source bracket dominates the sharp one and decreases as
    # gamma -> 0 when the effective source is dissipative
    res, reg = _box_source_run()
    ym = estimate_young_measure([res])
    ctx = MeasureContext(ym, reg)
    psis = battery_from_geometry(reg.spec)[::7]
    for sign in ("PLUS", "MINUS"):
        for mu in (-0.2, 0.1, 0.5):
            sharp = ctx.residual(sign, mu, psis, gamma=0.0)
            fine = ctx.residual(sign, mu, psis, gamma=1e-3)
            coarse = ctx.residual(sign, mu, psis, gamma=1e-2)
            assert np.all(sharp <= fine + 1e-12)
            assert np.all(fine <= coarse + 1e-12)


def test_mv_table_flags_atom_levels(tmp_path):
    res, reg = _run(_constant_spec(0.5))
    ym = estimate_young_measure([res])
    atom = float(ym.atoms[0][0][0][0])
    assert mu_is_atom(_atoms(ym), atom)
    assert not mu_is_atom(_atoms(ym), atom + 0.1)
    psis = battery_from_geometry(reg.spec)[:2]
    rows = mv_residual_table(MeasureContext(ym, reg), [atom, atom + 0.1], psis)
    assert len(rows) == 2 * 2 * 2
    flags = {(r[0], r[1]): r[4] for r in rows}
    assert flags[("PLUS", atom)] is True
    assert flags[("PLUS", atom + 0.1)] is False

    path = tmp_path / "mv.csv"
    write_mv_table_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sign,mu,psi_id,residual,mu_is_atom"
    assert len(lines) == 1 + len(rows)


# ---------------------------------------------------------------------------
# Averaged contraction
# ---------------------------------------------------------------------------


def test_averaged_contraction_identical_dirac_is_zero():
    res, reg = _box_source_run()
    ym = _dirac(res)
    gaps = averaged_contraction_gap(ym, ym, battery_from_geometry(reg.spec)[::7], reg)
    assert np.all(np.abs(gaps) <= 1e-9)


def test_averaged_contraction_dirac_pair_matches_pair_gap():
    # product of Diracs reduces the double brackets to the two-run integrand
    src = SourceSpec("arctan", {"c": 1.0})
    spec_a = canonical_spec(u0={"id": "box", "params": {"height": 0.6, "a": -1.0, "b": 0.5}},
                            source=src, ell=2.0, m=2.0)
    spec_b = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -1.2, "b": 0.7}},
                            source=src, ell=2.0, m=2.0)
    grid = Grid1D(spec_a.x_lo, spec_a.x_hi, 64)
    reg_a = regularized(spec_a, grid)
    reg_b = regularized(spec_b, grid)
    dt = _shared_dt(spec_a, spec_b, grid, reg_a, reg_b)
    res_a = solve(spec_a, grid, snapshots=64, dt_override=dt, reg=reg_a)
    res_b = solve(spec_b, grid, snapshots=64, dt_override=dt, reg=reg_b)
    ym_a, ym_b = _dirac(res_a), _dirac(res_b)
    psis = battery_from_geometry(spec_a)[::7]
    gap_mv = averaged_contraction_gap(ym_a, ym_b, psis, reg_a)
    gap_runs = pair_gap_battery("CONTRACTION", ResidualEvaluator(res_a, reg_a),
                                ResidualEvaluator(res_b, reg_b), psis)
    assert gap_mv == pytest.approx(gap_runs, abs=1e-9)
    # product bracket symmetry: swapping the measures changes nothing
    assert averaged_contraction_gap(ym_b, ym_a, psis, reg_a) == \
        pytest.approx(gap_mv, abs=1e-12)


def test_averaged_contraction_bilinear_in_both_measures():
    specs = [_constant_spec(c) for c in (0.8, 0.3, -0.4, 0.1)]
    runs = [_run(s)[0] for s in specs]
    reg = _run(specs[0])[1]
    ym1 = estimate_young_measure(runs[:2])
    ym2 = estimate_young_measure(runs[2:])
    diracs = [_dirac(r) for r in runs]
    psis = battery_from_geometry(specs[0])[4:5]
    pooled = averaged_contraction_gap(ym1, ym2, psis, reg)[0]
    parts = [averaged_contraction_gap(diracs[i], diracs[j], psis, reg)[0]
             for i in (0, 1) for j in (2, 3)]
    assert pooled == pytest.approx(0.25 * sum(parts), abs=1e-9)


def test_averaged_contraction_nonnegative_on_nested_pair():
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
    ym_a = estimate_young_measure([res_a])
    ym_b = estimate_young_measure([res_b])
    tol = 10.0 * grid.dx * (1.0 + max(float(np.abs(res_a.V).max()),
                                      float(np.abs(res_b.V).max())))
    gaps = averaged_contraction_gap(ym_a, ym_b, battery_from_geometry(spec_a)[::4],
                                    reg_a)
    assert np.all(gaps >= -tol)


def test_averaged_contraction_layout_mismatch_rejected():
    res, reg = _run(_constant_spec(0.5))
    ym1 = estimate_young_measure([res])
    ym2 = estimate_young_measure([res], macro=(8, 16))
    with pytest.raises(ValueError, match="mismatch"):
        averaged_contraction_gap(ym1, ym2, battery_from_geometry(reg.spec)[:1], reg)


# ---------------------------------------------------------------------------
# Reference: the per-block bracket loops
# ---------------------------------------------------------------------------
#
# The evaluation that MeasureContext and averaged_contraction_gap replaced:
# one dict of bracket ingredients per macro block and a Python loop that
# contracts each block's brackets with the block sums of the psi fields.
# Kept here as an independent oracle for the sums past each level over the
# flat sorted atoms.


def _reference_blocks(ym, reg):
    """(C, per-block ingredient dicts) of one estimate."""
    spec = reg.spec
    theta = reg.theta
    C = np.empty((len(ym.times), len(ym.centers)))
    for s, t in enumerate(ym.times):
        C[s] = spec.source.c_mollified(spec.j, t, ym.centers)
    blocks = []
    for bt in range(ym.n_t_blocks):
        ts, te = ym.t_idx_edges[bt], ym.t_idx_edges[bt + 1]
        for bx in range(ym.n_x_blocks):
            xs, xe = ym.x_idx_edges[bx], ym.x_idx_edges[bx + 1]
            vals, wts = ym.atoms[bt][bx]
            eta = theta.sampled.inverse(theta.cell_rows[xs:xe], vals[:, None])
            blocks.append({
                "ts": ts, "te": te, "xs": xs, "xe": xe,
                "vals": vals, "wts": wts, "eta": eta,
                "g_eta": spec.source.g_mollified(spec.j, eta),
                "phi": perturbation(vals, spec.ell, spec.m),
                "A": reg.curve(0, vals),
            })
    return C, blocks


def _reference_psi(ym, psi):
    return psi_matrices(psi, ym.times, ym.centers)


def _reference_contract(C, blk, psi_fields, B1, B2, B3g, B3p):
    """One block's share of the quadrature sum."""
    sl = np.s_[blk["ts"]:blk["te"], blk["xs"]:blk["xe"]]
    Pb, Ptb, Pxb = (F[sl] for F in psi_fields)
    CP = C[sl] * Pb
    return float(B1 @ Ptb.sum(axis=0)) + B2 * float(Pxb.sum()) \
        + float(B3g @ CP.sum(axis=0)) + B3p * float(Pb.sum())


def _reference_mv_residual(ym, reg, ref, sign, mu, psi, gamma=0.0):
    C, blocks = ref
    A_mu = float(reg.curve(0, mu))
    eta_mu_cells = reg.theta.eta_cells(float(mu))
    psi_fields = _reference_psi(ym, psi)
    total = 0.0
    for blk in blocks:
        vals, wts, eta = blk["vals"], blk["wts"], blk["eta"]
        eta_mu = eta_mu_cells[blk["xs"]:blk["xe"]]
        if sign == "PLUS":
            B1 = wts @ np.maximum(eta - eta_mu, 0.0)
            chi_flux = wts * (vals > mu)
            chi_src = wts * chi_gamma_above(vals, mu, gamma)
            B2 = float(chi_flux @ (blk["A"] - A_mu))
            B3g = chi_src @ blk["g_eta"]
            B3p = float(chi_src @ blk["phi"])
        else:
            B1 = wts @ np.maximum(eta_mu - eta, 0.0)
            chi_flux = wts * (vals < mu)
            chi_src = wts * chi_gamma_below(vals, mu, gamma)
            B2 = float(chi_flux @ (A_mu - blk["A"]))
            B3g = -(chi_src @ blk["g_eta"])
            B3p = -float(chi_src @ blk["phi"])
        total += _reference_contract(C, blk, psi_fields, B1, B2, B3g, B3p)
    return ym.dx * ym.slab * total


def _reference_averaged_gap(ym1, ym2, ref1, ref2, psi):
    C, blocks1 = ref1
    psi_fields = _reference_psi(ym1, psi)
    total = 0.0
    for blk1, blk2 in zip(blocks1, ref2[1]):
        W = np.outer(blk1["wts"], blk2["wts"])
        sg = np.sign(blk1["vals"][:, None] - blk2["vals"][None, :])
        B1 = np.einsum("ab,abc->c", W,
                       np.abs(blk1["eta"][:, None, :] - blk2["eta"][None, :, :]))
        B2 = float(np.sum(W * sg * (blk1["A"][:, None] - blk2["A"][None, :])))
        B3g = np.einsum("ab,abc->c", W * sg,
                        blk1["g_eta"][:, None, :] - blk2["g_eta"][None, :, :])
        B3p = float(np.sum(W * sg * (blk1["phi"][:, None] - blk2["phi"][None, :])))
        total += _reference_contract(C, blk1, psi_fields, B1, B2, B3g, B3p)
    return ym1.dx * ym1.slab * total


@functools.lru_cache(maxsize=None)
def _reference_ensembles(graph="identity"):
    """Two 3-member j ensembles (a datum and its 0.6-scaled partner) of a
    problem whose inverse states depend on the cell (two coefficient
    regions) and whose source and perturbation brackets are nonzero, on
    64 cells x 64 slabs; plus the top-j tables.  ``graph`` names the
    MonotoneGraph constructor of the nonlinearity."""
    src = SourceSpec("arctan", {"c": 1.0})
    coeff = {"kind": "pwc", "region_c": [1.0, 1.5], "x_breaks": [0.0]}
    ensembles = []
    for height in (1.0, 0.6):
        base = canonical_spec(
            u0={"id": "box", "params": {"height": height, "a": -0.75, "b": 0.25}},
            source=src, coeff=coeff, ell=2.0, m=2.0,
            theta_graph=getattr(MonotoneGraph, graph)())
        specs = [dataclasses.replace(base, j=j) for j in (4, 8, 16)]
        grid = Grid1D(base.x_lo, base.x_hi, 64)
        runs, _, regs = solve_points(specs, grid, snapshots=64)
        ensembles.append(runs)
    return ensembles[0], ensembles[1], regs[-1]


@st.composite
def layouts(draw):
    """Ensemble size and macro shape; 64 cells and slabs make every shape
    but 4 and 8 ragged, and 9 is the widest the battery radii resolve."""
    return (draw(st.integers(1, 3)), draw(st.integers(3, 9)),
            draw(st.integers(3, 9)))


MV_SETTINGS = settings(max_examples=20, deadline=None)


def _assert_close(got, want):
    """Agreement within 1e-12 of the largest reference residual."""
    scale = max(abs(w) for w in want)
    err = max(abs(g - w) for g, w in zip(got, want))
    assert err <= 1e-12 * scale, (err, scale)


@seed(20140409)
@MV_SETTINGS
@given(layouts(), st.sampled_from(["PLUS", "MINUS"]),
       st.one_of(st.just(0.0), st.floats(1e-3, 0.1)),
       st.floats(-0.3, 1.3), st.integers(0, 10 ** 6))
def test_mv_residual_matches_per_block_reference(layout, sign, gamma, mu, pick):
    _check_mv_residual(_reference_ensembles(), layout, sign, gamma, mu, pick)


@seed(20140411)
@MV_SETTINGS
@given(layouts(), st.sampled_from(["PLUS", "MINUS"]),
       st.one_of(st.just(0.0), st.floats(1e-3, 0.1)),
       st.floats(-0.3, 2.8), st.integers(0, 10 ** 6))
def test_mv_residual_matches_per_block_reference_on_jump_graph(
        layout, sign, gamma, mu, pick):
    # theta = u + Sgn(u): eta(x, .) is nearly flat across the jump's values
    _check_mv_residual(_reference_ensembles("sign_plus_identity"), layout,
                       sign, gamma, mu, pick)


def _check_mv_residual(ensembles, layout, sign, gamma, mu, pick):
    n_runs, mt, mx = layout
    runs, _, reg = ensembles
    ym = estimate_young_measure(runs[:n_runs], macro=(mt, mx), min_samples=1)
    atom = float(ym.values[pick % len(ym.values)])
    # a free level, one at an atom, and two with that atom at a ramp end
    mus = [mu, atom, atom - gamma, atom + gamma]
    psis = battery_from_geometry(reg.spec)[::5]
    ctx = MeasureContext(ym, reg)
    ref = _reference_blocks(ym, reg)
    got = np.concatenate([ctx.residual(sign, m, psis, gamma=gamma) for m in mus])
    want = [_reference_mv_residual(ym, reg, ref, sign, m, psi, gamma)
            for m in mus for psi in psis]
    _assert_close(got, want)


@seed(20140410)
@MV_SETTINGS
@given(layouts(), st.integers(1, 3))
def test_averaged_contraction_matches_per_block_reference(layout, n_partner):
    n_runs, mt, mx = layout
    runs, partners, reg = _reference_ensembles()
    ym1 = estimate_young_measure(runs[:n_runs], macro=(mt, mx), min_samples=1)
    ym2 = estimate_young_measure(partners[:n_partner], macro=(mt, mx),
                                 min_samples=1)
    ref1, ref2 = _reference_blocks(ym1, reg), _reference_blocks(ym2, reg)
    psis = battery_from_geometry(reg.spec)[::5]
    got = averaged_contraction_gap(ym1, ym2, psis, reg)
    want = [_reference_averaged_gap(ym1, ym2, ref1, ref2, psi) for psi in psis]
    _assert_close(got, want)


# ---------------------------------------------------------------------------
# Support and trace checks
# ---------------------------------------------------------------------------


def _reference_support(ym, r, u0, reg):
    """The per-block loop that support_and_trace_check replaced: (violations,
    trace values)."""
    violations = []
    trace = np.zeros(ym.n_t_blocks)
    for bt in range(ym.n_t_blocks):
        for bx in range(ym.n_x_blocks):
            vals, wts = ym.atoms[bt][bx]
            for v in vals[np.abs(vals) > r]:
                violations.append({"t_block": bt, "x_block": bx, "atom": float(v)})
            cells = slice(ym.x_idx_edges[bx], ym.x_idx_edges[bx + 1])
            eta = reg.theta.sampled.inverse(reg.theta.cell_rows[cells], vals[:, None])
            trace[bt] += ym.dx * float(wts @ np.sum(np.abs(eta - u0[cells]), axis=1))
    return violations, trace


@seed(20140412)
@MV_SETTINGS
@given(layouts(), st.sampled_from(["identity", "sign_plus_identity"]),
       st.floats(0.5, 1.0))
def test_support_and_trace_match_per_block_reference(layout, graph, frac):
    # odd macro widths put blocks across the coefficient break, where one
    # block holds cells of two theta rows
    n_runs, mt, mx = layout
    runs, _, reg = _reference_ensembles(graph)
    ym = estimate_young_measure(runs[:n_runs], macro=(mt, mx), min_samples=1)
    r = frac * default_support_radius(ym)
    u0 = reg.spec.initial_values(reg.grid.centers, reg.grid.dx)
    report = support_and_trace_check(MeasureContext(ym, reg), r, u0)
    violations, trace = _reference_support(ym, r, u0, reg)
    assert report["violations"] == violations
    _assert_close(report["trace_values"], trace)


def test_support_check_passes_then_flags_injected_atom():
    res, reg = _box_source_run()
    ym = estimate_young_measure([res])
    r = default_support_radius(ym)
    u0 = reg.spec.initial_values(res.grid.centers, res.grid.dx)
    report = support_and_trace_check(MeasureContext(ym, reg), r, u0)
    assert report["support_ok"] and report["violations"] == []

    atoms = [[(v.copy(), w.copy()) for (v, w) in row] for row in ym.atoms]
    v0, w0 = atoms[0][0]
    atoms[0][0] = (np.append(v0, 2.0 * r), np.append(w0, 0.0))
    spiked = YoungMeasureEstimate(times=ym.times, centers=ym.centers,
                                  dx=ym.dx, slab=ym.slab,
                                  t_idx_edges=ym.t_idx_edges,
                                  x_idx_edges=ym.x_idx_edges, atoms=atoms)
    report = support_and_trace_check(MeasureContext(spiked, reg), r, u0)
    assert not report["support_ok"]
    assert report["violations"] == [
        {"t_block": 0, "x_block": 0, "atom": pytest.approx(2.0 * r)}]


def test_trace_curve_constant_ensemble():
    res, reg = _run(_constant_spec(0.5))
    ym = estimate_young_measure([res])
    u0 = np.full(len(res.grid.centers), 0.5)
    ctx = MeasureContext(ym, reg)
    report = support_and_trace_check(ctx, default_support_radius(ym), u0)
    assert np.max(np.abs(report["trace_values"])) <= 1e-9
    # oracle: shifting the datum by 0.25 adds |eta - u0| = 0.25 over the
    # 4-wide domain, so every trace value is 1.0
    report = support_and_trace_check(ctx, default_support_radius(ym), u0 + 0.25)
    assert report["trace_values"] == pytest.approx([1.0] * 8, rel=1e-6)


def test_trace_curve_first_value_shrinks_with_slab():
    spec = canonical_spec(u0={"id": "box", "params": {"height": 1.0, "a": -0.75, "b": 0.0}})
    res, reg = _run(spec, n=64, snapshots=64)
    u0 = spec.initial_values(res.grid.centers, res.grid.dx)
    first = {}
    for mt in (16, 4):
        ym = estimate_young_measure([res], macro=(mt, 8))
        report = support_and_trace_check(MeasureContext(ym, reg),
                                         default_support_radius(ym), u0)
        first[mt] = report["trace_values"][0]
    assert first[4] < first[16]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_young_measure_json_roundtrip(tmp_path):
    res, _ = _run(_constant_spec(0.5))
    ym = estimate_young_measure([res])
    path = tmp_path / "ym.json"
    ym.write_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["provenance"]["n_runs"] == 1
    assert loaded["t_idx_edges"] == ym.t_idx_edges.tolist()
    blk = loaded["blocks"][0][0]
    assert blk["weights"] == [1.0]
    assert blk["values"] == pytest.approx([float(ym.atoms[0][0][0][0])])
