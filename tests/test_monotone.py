"""Tests for the monotone-graph calculus: resolvent, Yosida, inversion,
regularization, and inverse convergence.

Expected values are frozen from independent oracles defined in this file
or in conftest.py (pure bisection on the defining relations, hand-derived
closed forms); the module under test never produces its own reference
numbers.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab import monotone
from balancelab.monotone import (
    THETA_SAMPLES,
    MonotoneGraph,
    Table,
    check_inverse_convergence,
    compose_graphs,
    invert_graph,
    mollifier_nodes,
    regularize_theta,
    resolvent,
    yosida,
)
from conftest import canonical_spec, random_monotone_graph, resolvent_bisect

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _oracle_regularized(graph, c, j, u, kernel):
    """Quadrature + bisection oracle for the regularized graph value:
    mollified Yosida (lam = 1/sqrt(j), radius 1/j, rescaled by 1 + lam) of
    c*graph, zeroed at 0."""
    lam = 1.0 / math.sqrt(j)
    r = 1.0 / j
    nodes, weights = kernel
    scaled = graph.scaled(c)

    def molly(point):
        acc = 0.0
        for s, w in zip(nodes, weights):
            pt = point - r * s
            acc += w * (pt - resolvent_bisect(scaled, lam, pt, tol=1e-13)) / lam
        return acc

    return (1.0 + lam) * (molly(u) - molly(0.0))


def _per_sample_table(graph, coeffs, weights, j, u_lo, u_hi, outer=None):
    """Oracle for the table rows of every point: one column per coefficient
    sample, built afresh each time, with the row accumulation of the
    deduplicated build (the same operations in the same order)."""
    lam = 1.0 / math.sqrt(j)
    r = 1.0 / j
    nodes, kernel = mollifier_nodes()
    grid = np.linspace(u_lo, u_hi, THETA_SAMPLES)
    pts = np.concatenate([grid, [0.0]])[:, None] - r * nodes[None, :]

    def u_mollified_yosida(g, scaled_lam):
        yos = resolvent(g, scaled_lam, pts.ravel()).reshape(pts.shape)
        np.subtract(pts, yos, out=yos)
        yos /= scaled_lam
        yos *= kernel
        return yos.sum(axis=1)

    def column(c):
        if outer is None:
            return (1.0 + lam) * c * u_mollified_yosida(graph, lam * c)
        return (1.0 + lam) * u_mollified_yosida(
            compose_graphs(outer, graph.scaled(c)), lam)

    table = np.empty((len(coeffs), THETA_SAMPLES))
    for i, row in enumerate(np.asarray(coeffs, dtype=float)):
        acc = np.zeros(THETA_SAMPLES + 1)
        for p in range(len(row)):
            acc += weights[p] * column(row[p])
        table[i] = acc[:-1] - acc[-1]
    return table


def _kernel_samples(c_fn, x, j):
    """(coefficient at every (point, x-kernel node), kernel weights): the
    samples a smooth coefficient is regularized from."""
    nodes, weights = mollifier_nodes()
    r = 1.0 / j
    return np.array([c_fn(xi - r * nodes) for xi in x]), weights


def _pwc(x, x_breaks, region_c):
    """c(x) of a piecewise-constant coefficient, as ProblemSpec lays it out."""
    return canonical_spec(coeff={"kind": "pwc", "x_breaks": x_breaks,
                                 "region_c": region_c}).coefficient(x)


def _taken_as_is(c):
    """Samples and weight of a coefficient used without x-mollification."""
    return np.asarray(c, dtype=float)[:, None], [1.0]


# ---------------------------------------------------------------------------
# Graph construction and evaluation
# ---------------------------------------------------------------------------


def test_sign_plus_identity_values():
    g = MonotoneGraph.sign_plus_identity()
    lo, hi = g.value_interval(0.0)
    assert (lo, hi) == (-1.0, 1.0)
    assert g.value_interval(2.0) == (3.0, 3.0)
    assert g.value_interval(-1.5) == (-2.5, -2.5)
    assert g.minimal_selection(0.0) == 0.0
    assert g.minimal_selection(2.0) == 3.0


def test_sign_graph_flat_tails():
    g = MonotoneGraph.sign(height=2.0)
    assert g.value_interval(0.0) == (-2.0, 2.0)
    assert g.value_interval(5.0) == (2.0, 2.0)
    assert g.value_interval(-5.0) == (-2.0, -2.0)


def test_from_knots_piecewise():
    g = MonotoneGraph.from_knots([(-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)], (1.0, 0.5))
    assert g.value_interval(-0.5) == (-1.0, -1.0)
    assert g.value_interval(1.0) == (0.5, 0.5)
    assert g.value_interval(3.0) == (1.5, 1.5)
    assert g.value_interval(-2.0) == (-3.0, -3.0)


def test_validation_rejects_bad_graphs():
    with pytest.raises(ValueError):
        MonotoneGraph([1.0, 0.0], [[1.0, 1.0], [0.0, 0.0]], [1.0], (1.0, 1.0))
    with pytest.raises(ValueError):
        MonotoneGraph([0.0], [[1.0, -1.0]], [], (1.0, 1.0))
    with pytest.raises(ValueError):
        MonotoneGraph([0.0], [[-1.0, 1.0]], [], (-0.5, 1.0))
    with pytest.raises(ValueError):  # segment does not reach the next jump
        MonotoneGraph([0.0, 1.0], [[0.0, 0.0], [5.0, 5.0]], [1.0], (1.0, 1.0))
    with pytest.raises(ValueError):  # misses (0, 0)
        MonotoneGraph([1.0], [[2.0, 3.0]], [], (1.0, 1.0))
    with pytest.raises(ValueError):  # two tail slopes for a bare line
        MonotoneGraph(np.empty(0), np.empty((0, 2)), np.empty(0), (1.0, 2.0))


def test_json_round_trip():
    g = MonotoneGraph.from_knots([(-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)], (1.0, 0.5))
    d = json.loads(json.dumps(g.to_dict()))
    h = MonotoneGraph.from_dict(d)
    assert np.array_equal(h.breakpoints, g.breakpoints)
    assert np.array_equal(h.jumps, g.jumps)
    assert np.array_equal(h.slopes, g.slopes)
    assert h.tail_slopes == g.tail_slopes


# ---------------------------------------------------------------------------
# Resolvent and Yosida transform
# ---------------------------------------------------------------------------


def test_resolvent_hand_values():
    g = MonotoneGraph.sign_plus_identity()
    # u + 1*(u + Sgn u) = 3 on the branch u > 0: 2u + 1 = 3
    assert resolvent(g, 1.0, 3.0) == pytest.approx(1.0, abs=1e-14)
    assert yosida(g, 1.0, 3.0) == pytest.approx(2.0, abs=1e-14)
    # |w| <= lam * height pins the resolvent to the jump abscissa
    assert resolvent(g, 1.0, 0.5) == 0.0
    assert yosida(g, 1.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert resolvent(g, 0.5, -2.0) == pytest.approx(-1.0, abs=1e-14)
    s = MonotoneGraph.sign()
    assert resolvent(s, 2.0, 1.0) == 0.0
    assert yosida(s, 2.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_resolvent_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = random_monotone_graph(rng)
        lam = float(rng.uniform(0.05, 4.0))
        for w in rng.uniform(-8.0, 8.0, size=4):
            u_fast = resolvent(g, lam, float(w))
            u_ref = resolvent_bisect(g, lam, float(w))
            assert abs(u_fast - u_ref) < 1e-9


def test_resolvent_nonexpansive_and_yosida_lipschitz():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_monotone_graph(rng)
        lam = float(rng.uniform(0.05, 4.0))
        w = rng.uniform(-8.0, 8.0, size=64)
        u = resolvent(g, lam, w)
        dw = np.abs(w[:, None] - w[None, :])
        dr = np.abs(u[:, None] - u[None, :])
        assert np.all(dr <= dw + 1e-10)
        y = yosida(g, lam, w)
        dy = np.abs(y[:, None] - y[None, :])
        assert np.all(dy <= dw / lam + 1e-10)


def test_yosida_membership_and_monotonicity_in_lam():
    rng = np.random.default_rng(13)
    lams = [2.0 ** (-p) for p in range(0, 11)]
    for _ in range(40):
        g = random_monotone_graph(rng)
        for w in rng.uniform(-6.0, 6.0, size=4):
            prev = -1.0
            for lam in lams:
                u = resolvent(g, lam, float(w))
                y = (w - u) / lam
                lo, hi = g.value_interval(u)
                assert lo - 1e-8 <= y <= hi + 1e-8
                # |theta_lam(w)| grows toward the minimal selection as lam -> 0
                assert abs(y) >= prev - 1e-10
                prev = abs(y)
            assert prev <= abs(g.minimal_selection(float(w))) + 1e-8


def test_resolvent_rejects_bad_lam():
    g = MonotoneGraph.identity()
    with pytest.raises(ValueError):
        resolvent(g, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Graph inversion
# ---------------------------------------------------------------------------


def test_invert_sign_plus_identity_has_plateau():
    inv = invert_graph(MonotoneGraph.sign_plus_identity())
    assert np.allclose(inv.breakpoints, [-1.0, 1.0])
    assert np.allclose(inv.jumps, [[0.0, 0.0], [0.0, 0.0]])
    assert np.allclose(inv.slopes, [0.0])
    assert inv.tail_slopes == (1.0, 1.0)
    assert inv.value_interval(0.3) == (0.0, 0.0)
    assert inv.value_interval(2.0) == (1.0, 1.0)


def test_invert_flat_segment_becomes_jump():
    g = MonotoneGraph([-1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], [0.0], (1.0, 1.0))
    inv = invert_graph(g)
    assert np.allclose(inv.breakpoints, [0.0])
    assert np.allclose(inv.jumps, [[-1.0, 1.0]])


def test_invert_is_involutive():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_monotone_graph(rng)
        if min(g.tail_slopes) <= 0:
            continue
        gg = invert_graph(invert_graph(g))
        assert np.allclose(gg.breakpoints, g.breakpoints, atol=1e-10)
        assert np.allclose(gg.jumps, g.jumps, atol=1e-10)
        assert np.allclose(gg.slopes, g.slopes, atol=1e-10)


def test_invert_requires_positive_tails():
    with pytest.raises(ValueError):
        invert_graph(MonotoneGraph.sign())


# ---------------------------------------------------------------------------
# Sampled increasing functions
# ---------------------------------------------------------------------------


def test_smooth_fn_interp_and_inverse():
    f = Table.from_function(lambda u: u**3 + u, -2.0, 2.0, n=4097)
    xs = np.linspace(-1.5, 1.5, 101)
    assert np.abs(f(0, xs) - (xs**3 + xs)).max() < 1e-5
    assert np.abs(f.inverse(0, f(0, xs)) - xs).max() < 1e-9
    # linear extension beyond the sample window with the edge slopes
    edge_slope = f.lipschitz
    assert f(0, 3.0) == pytest.approx(f(0, 2.0) + edge_slope * 1.0, rel=1e-12)
    assert f.margin > 0


def test_smooth_fn_rejects_nonincreasing():
    with pytest.raises(ValueError):
        Table(0.0, 1.0, [0.0, 1.0, 1.0]).inverse(0, 0.5)


# ---------------------------------------------------------------------------
# Regularization pipeline
# ---------------------------------------------------------------------------


def test_regularize_identity_closed_form():
    # Yosida of the identity is w/(1+lam); the (1+lam) rescale undoes the
    # shrinkage and averaging a linear map with the symmetric unit-mass
    # kernel changes nothing, so theta_j is the identity for every j.
    for j in (1, 4, 100, 4096):
        reg = regularize_theta(MonotoneGraph.identity(), *_taken_as_is(np.ones(8)),
                               j, -12.0, 12.0)
        us = np.linspace(-10.0, 10.0, 41)
        got = np.array([reg.v_of_u(u)[0] for u in us])
        assert np.abs(got - us).max() < 1e-6


def test_regularize_sign_jump_hand_values():
    # theta = u + Sgn(u).  On u > lam + r the Yosida transform is affine,
    # (u+1)/(1+lam), mollification is exact on the branch and the (1+lam)
    # rescale restores it, so theta_j(2) = 3 exactly for every listed j.
    for j in (4, 16, 64, 256):
        reg = regularize_theta(MonotoneGraph.sign_plus_identity(),
                               *_taken_as_is(np.ones(4)), j, -5.0, 5.0)
        assert abs(reg.v_of_u(2.0)[0] - 3.0) < 1e-12
        assert abs(reg.v_of_u(0.0)[0]) < 1e-14
        assert reg.margin > 0


def test_regularize_matches_quadrature_oracle():
    kernel = mollifier_nodes()
    g = MonotoneGraph.sign_plus_identity()
    reg = regularize_theta(g, *_taken_as_is(np.ones(4)), 9, -5.0, 5.0)
    # compare at exact table nodes (no interpolation in the module path)
    for idx in (307, 471, 528, 645):
        u = reg.u_lo + reg.sampled.du * idx
        want = _oracle_regularized(g, 1.0, 9, u, kernel)
        assert abs(reg.table[0][idx] - want) < 1e-10
    # off-node values go through linear interpolation of the sampled table
    want = _oracle_regularized(g, 1.0, 9, 0.15, kernel)
    assert abs(reg.v_of_u(0.15)[0] - want) < 5e-4


def test_regularize_pwc_field_rows():
    g = MonotoneGraph.sign_plus_identity()
    x = np.linspace(-0.875, 0.875, 8)
    c = _pwc(x, [0.0], [1.0, 2.0])
    assert np.array_equal(c, [1, 1, 1, 1, 2, 2, 2, 2])
    reg = regularize_theta(g, *_taken_as_is(c), 4, -5.0, 5.0)
    assert reg.table.shape[0] == 2
    assert np.array_equal(reg.cell_rows, [0, 0, 0, 0, 1, 1, 1, 1])
    # hand values: Yosida of c*(u + Sgn u) at lam=1/2 is c(u+1)/(1+lam*c)
    # for u past the jump, the kernel average is exact on the affine branch,
    # and the rescale gives (1+lam) c (u+1)/(1+lam*c): 3 at c=1, 4.5 at c=2
    vals = reg.v_of_u(2.0)
    assert abs(vals[0] - 3.0) < 1e-12
    assert abs(vals[3] - 3.0) < 1e-12
    assert abs(vals[4] - 4.5) < 1e-12
    kernel = mollifier_nodes()
    idx = 389
    want = _oracle_regularized(g, 2.0, 4, reg.u_lo + reg.sampled.du * idx, kernel)
    assert abs(reg.table[1][idx] - want) < 1e-10
    assert np.abs(reg.v_of_u(0.0)).max() < 1e-14


def test_regularize_pwc_repeated_coefficient_shares_one_row():
    # one table row per distinct coefficient, wherever its regions lie
    g = MonotoneGraph.sign_plus_identity()
    x = np.linspace(-0.875, 0.875, 8)
    c = _pwc(x, [-0.4, 0.4], [1.0, 2.0, 1.0])
    assert np.array_equal(c, [1, 1, 2, 2, 2, 2, 1, 1])
    reg = regularize_theta(g, *_taken_as_is(c), 4, -5.0, 5.0)
    assert reg.table.shape[0] == 2
    assert np.array_equal(reg.cell_rows, [0, 0, 1, 1, 1, 1, 0, 0])
    # the same cells against the rows of a build with distinct coefficients
    distinct = regularize_theta(
        g, *_taken_as_is(_pwc(x, [0.0], [1.0, 2.0])), 4, -5.0, 5.0)
    U = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 8))
    want = distinct.sampled(np.where(c == 1.0, 0, 1), U)
    assert np.array_equal(reg.v_of_u(U), want)


def test_regularize_smooth_field():
    g = MonotoneGraph.identity()
    x = np.linspace(-1.0, 1.0, 16)
    reg = regularize_theta(g, *_kernel_samples(lambda s: 1.5 + 0.5 * np.sin(s), x, 16),
                           16, -4.0, 4.0)
    assert reg.margin > 0
    assert np.abs(reg.v_of_u(0.0)).max() < 1e-14
    # identity base graph: theta_j(x, u) is close to
    # (1 + lam) c(x) u / (1 + lam c(x))
    lam = 0.25
    c = 1.5 + 0.5 * np.sin(x)
    approx = (1.0 + lam) * c * 2.0 / (1.0 + lam * c)
    assert np.abs(reg.v_of_u(2.0) - approx).max() < 1e-3


# A jump at 0.5 on top of the scaled graph, as a flux jump absorbed
# through outer = U^{-1} would put there.
_OUTER = MonotoneGraph([0.5], [[0.5, 1.0]], [], (1.0, 1.0))
_GRAPHS = {
    "identity": MonotoneGraph.identity(),
    "sign_plus_identity": MonotoneGraph.sign_plus_identity(),
    "knots": MonotoneGraph.from_knots([[-1.0, -0.5], [0.0, 0.0], [0.5, 1.5]], (0.5, 2.0)),
}
# (x_lo, x_hi, cells): dyadic dx, where the kernel points of neighbouring
# cells coincide once j is a power of two >= 4, and grids where they do not
_GRIDS = [(-0.25, 0.25, 8), (-0.25, 0.25, 16), (-0.25, 0.3, 9), (-0.25, 0.3, 12)]


@seed(20140413)
@settings(max_examples=20, deadline=None)
@given(
    grid=st.sampled_from(_GRIDS),
    j=st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), st.integers(1, 64)),
    graph=st.sampled_from(sorted(_GRAPHS)),
    with_outer=st.booleans(),
    a=st.floats(1.0, 2.0),
    b_frac=st.one_of(st.floats(-0.9, -0.1), st.floats(0.1, 0.9)),
    k=st.floats(0.5, 3.0),
    phase=st.floats(0.0, 6.3),
)
def test_regularize_smooth_shares_columns_exactly(grid, j, graph, with_outer,
                                                  a, b_frac, k, phase):
    # the deduplicated build is bit-identical to one column per (cell,
    # node), and calls the resolvent once per distinct coefficient value
    x_lo, x_hi, n = grid
    dx = (x_hi - x_lo) / n
    x = x_lo + dx * (np.arange(n) + 0.5)
    b = b_frac * a
    coeffs, weights = _kernel_samples(lambda s: a + b * np.sin(k * s + phase), x, j)
    outer = _OUTER if with_outer else None
    calls = []

    def counting_resolvent(*args):
        calls.append(args)
        return resolvent(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monotone, "resolvent", counting_resolvent)
        reg = regularize_theta(_GRAPHS[graph], coeffs, weights, j, -4.0, 4.0,
                               outer=outer)
    assert len(calls) == len(np.unique(coeffs))
    want = _per_sample_table(_GRAPHS[graph], coeffs, weights, j, -4.0, 4.0,
                             outer=outer)
    assert np.array_equal(reg.table, want)
    assert np.array_equal(reg.cell_rows, np.arange(n))


@seed(20141014)
@settings(max_examples=25, deadline=None)
@given(
    n_samples=st.sampled_from([1, 16]),
    values=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=4),
    data=st.data(),
    graph=st.sampled_from(sorted(_GRAPHS)),
    j=st.integers(1, 64),
)
def test_regularize_rows_follow_first_use(n_samples, values, data, graph, j):
    # random coefficient rows with repeats, built from a few values so that
    # rows and columns are both shared: each point's row is the oracle's,
    # there is one row per distinct coefficient row, in first-use order
    n_rows = data.draw(st.integers(1, 4))
    pool = np.array(data.draw(st.lists(
        st.lists(st.sampled_from(values), min_size=n_samples, max_size=n_samples),
        min_size=n_rows, max_size=n_rows)))
    use = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=12))
    coeffs = pool[use]
    weights = [1.0] if n_samples == 1 else mollifier_nodes()[1]
    reg = regularize_theta(_GRAPHS[graph], coeffs, weights, j, -4.0, 4.0)
    want = _per_sample_table(_GRAPHS[graph], coeffs, weights, j, -4.0, 4.0)
    assert np.array_equal(reg.table[reg.cell_rows], want)
    assert len(reg.table) == len(np.unique(coeffs, axis=0))
    rows = reg.cell_rows.tolist()
    firsts = [r for p, r in enumerate(rows) if r not in rows[:p]]
    assert firsts == list(range(len(reg.table)))


def _excess_peak(coeffs, weights, j):
    """Traced peak of one build, beyond the bytes of the table it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reg = regularize_theta(MonotoneGraph.identity(), coeffs, weights, j,
                               -4.0, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - reg.table.nbytes


def test_regularize_smooth_memory_does_not_scale_with_cells():
    # no two kernel points coincide on this grid at j = 64, so every
    # column is built once and dropped after its only cell; what remains
    # per cell is the bookkeeping of its 16 kernel points
    j = 64
    peaks = {}
    for n in (128, 512):
        dx = 4.3 / n
        x = -2.0 + dx * (np.arange(n) + 0.5)
        coeffs, weights = _kernel_samples(lambda s: 1.5 + 0.4 * np.sin(1.3 * s), x, j)
        assert len(np.unique(coeffs)) == 16 * n
        peaks[n] = _excess_peak(coeffs, weights, j)
    # one table row per cell would add 8.2 kB per cell, and holding the
    # columns of all kernel points 131 kB; allow 2 kB for the 16 points
    assert peaks[512] - peaks[128] < 2048 * (512 - 128)
    # nor does the working set reach a table row's worth per cell
    assert peaks[512] < 512 * THETA_SAMPLES * 8


def test_state_value_round_trip():
    g = MonotoneGraph.sign_plus_identity()
    x = np.linspace(-0.875, 0.875, 8)
    reg = regularize_theta(g, *_taken_as_is(_pwc(x, [0.0], [1.0, 2.0])), 4, -5.0, 5.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, size=8)
    v = reg.v_of_u(u)
    assert np.abs(reg.eta_cells(v) - u).max() < 1e-10
    U = rng.uniform(-2.0, 2.0, size=(5, 8))
    assert np.abs(reg.eta_cells(reg.v_of_u(U)) - U).max() < 1e-10


def test_field_validation():
    with pytest.raises(ValueError):
        canonical_spec(coeff={"kind": "pwc", "x_breaks": [0.0], "region_c": [1.0]})
    with pytest.raises(ValueError):
        canonical_spec(coeff={"kind": "pwc", "x_breaks": [0.0], "region_c": [1.0, -2.0]})
    with pytest.raises(ValueError):
        canonical_spec(coeff={"kind": "smooth", "a": 0.0, "b": 1.0})
    with pytest.raises(ValueError):
        regularize_theta(MonotoneGraph.identity(), *_taken_as_is(np.ones(8)), 0,
                         -1.0, 1.0)


# ---------------------------------------------------------------------------
# Inverse convergence
# ---------------------------------------------------------------------------


def test_inverse_convergence_rejects_plateau_limit():
    g = MonotoneGraph([-1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], [0.0], (1.0, 1.0))
    seq = [Table.from_function(lambda u: u, -3.0, 3.0)]
    with pytest.raises(ValueError):
        check_inverse_convergence(seq, g, (-2.0, 2.0))
