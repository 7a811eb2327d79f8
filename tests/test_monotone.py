"""Tests for the monotone-graph calculus: resolvent, Yosida, inversion,
regularization, and inverse convergence.

Expected values are frozen from independent oracles defined in this file
(pure bisection on the defining relations, hand-derived closed forms);
the module under test never produces its own reference numbers.
"""

import json
import math

import numpy as np
import pytest

from balancelab.monotone import (
    MonotoneGraph,
    Table,
    ThetaField,
    check_inverse_convergence,
    graph_fn,
    invert_graph,
    mollifier_nodes,
    regularize_theta,
    resolvent,
    yosida,
)
from conftest import random_monotone_graph, resolvent_bisect

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _bisect_inverse(fn, v, lo=-6.0, hi=6.0, iters=200):
    """Solve fn(u) = v for increasing fn by plain bisection (vectorized)."""
    v = np.asarray(v, dtype=float)
    lo = np.full_like(v, lo)
    hi = np.full_like(v, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        take_hi = fn(mid) >= v
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def _oracle_arctan_inverse_errors(ns, n_grid=1000):
    """Sup distance of (u + (2/pi)atan(nu))^{-1} to the inverse of u + Sgn(u)
    on [-2, 2]: bisection on the defining relation, no package code."""
    ys = np.linspace(-2.0, 2.0, n_grid)
    ginv = np.where(ys > 1.0, ys - 1.0, np.where(ys < -1.0, ys + 1.0, 0.0))
    out = []
    for n in ns:
        finv = _bisect_inverse(lambda u: u + (2.0 / np.pi) * np.arctan(n * u), ys)
        out.append(float(np.abs(finv - ginv).max()))
    return out


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


# Frozen: _oracle_arctan_inverse_errors([1, 2, 4, 8, 16])
ARCTAN_INVERSE_ERRORS = [
    0.6376330865576232,
    0.499388518406946,
    0.37406609252468903,
    0.2726566326330421,
    0.1957494414203546,
]


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


def test_graph_fn_rejects_multivalued():
    with pytest.raises(ValueError):
        graph_fn(MonotoneGraph.sign())
    f = graph_fn(MonotoneGraph.from_knots([(-1.0, -1.0), (1.0, 1.0)], (2.0, 2.0)))
    assert np.allclose(f(np.array([-2.0, 0.5, 2.0])), [-3.0, 0.5, 3.0])


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
    x = np.linspace(-1.0, 1.0, 8)
    field = ThetaField.homogeneous(x, MonotoneGraph.identity())
    for j in (1, 4, 100, 4096):
        reg = regularize_theta(field, j, -12.0, 12.0)
        us = np.linspace(-10.0, 10.0, 41)
        got = np.array([reg.theta_of(u)[0] for u in us])
        assert np.abs(got - us).max() < 1e-6


def test_regularize_sign_jump_hand_values():
    # theta = u + Sgn(u).  On u > lam + r the Yosida transform is affine,
    # (u+1)/(1+lam), mollification is exact on the branch and the (1+lam)
    # rescale restores it, so theta_j(2) = 3 exactly for every listed j.
    x = np.linspace(-1.0, 1.0, 4)
    field = ThetaField.homogeneous(x, MonotoneGraph.sign_plus_identity())
    for j in (4, 16, 64, 256):
        reg = regularize_theta(field, j, -5.0, 5.0)
        assert abs(reg.theta_of(2.0)[0] - 3.0) < 1e-12
        assert abs(reg.theta_of(0.0)[0]) < 1e-14
        assert reg.margin > 0


def test_regularize_matches_quadrature_oracle():
    kernel = mollifier_nodes()
    g = MonotoneGraph.sign_plus_identity()
    x = np.linspace(-1.0, 1.0, 4)
    field = ThetaField.homogeneous(x, g)
    reg = regularize_theta(field, 9, -5.0, 5.0)
    # compare at exact table nodes (no interpolation in the module path)
    for idx in (307, 471, 528, 645):
        u = float(reg.u_grid[idx])
        want = _oracle_regularized(g, 1.0, 9, u, kernel)
        assert abs(reg.table[0][idx] - want) < 1e-10
    # off-node values go through linear interpolation of the sampled table
    want = _oracle_regularized(g, 1.0, 9, 0.15, kernel)
    assert abs(reg.theta_of(0.15)[0] - want) < 5e-4


def test_regularize_pwc_field_rows():
    g = MonotoneGraph.sign_plus_identity()
    x = np.linspace(-0.875, 0.875, 8)
    field = ThetaField.separable_pwc(x, g, [0.0], [1.0, 2.0])
    assert np.array_equal(field.cell_c, [1, 1, 1, 1, 2, 2, 2, 2])
    reg = regularize_theta(field, 4, -5.0, 5.0)
    assert reg.table.shape[0] == 2
    assert np.array_equal(reg.cell_rows, [0, 0, 0, 0, 1, 1, 1, 1])
    # hand values: Yosida of c*(u + Sgn u) at lam=1/2 is c(u+1)/(1+lam*c)
    # for u past the jump, the kernel average is exact on the affine branch,
    # and the rescale gives (1+lam) c (u+1)/(1+lam*c): 3 at c=1, 4.5 at c=2
    vals = reg.theta_of(2.0)
    assert abs(vals[0] - 3.0) < 1e-12
    assert abs(vals[3] - 3.0) < 1e-12
    assert abs(vals[4] - 4.5) < 1e-12
    kernel = mollifier_nodes()
    idx = 389
    want = _oracle_regularized(g, 2.0, 4, float(reg.u_grid[idx]), kernel)
    assert abs(reg.table[1][idx] - want) < 1e-10
    assert np.abs(reg.theta_of(0.0)).max() < 1e-14


def test_regularize_smooth_field():
    g = MonotoneGraph.identity()
    x = np.linspace(-1.0, 1.0, 16)
    field = ThetaField.separable_smooth(x, g, lambda s: 1.5 + 0.5 * np.sin(s))
    reg = regularize_theta(field, 16, -4.0, 4.0)
    assert reg.margin > 0
    assert np.abs(reg.theta_of(0.0)).max() < 1e-14
    # identity base graph: theta_j(x, u) is close to
    # (1 + lam) c(x) u / (1 + lam c(x))
    lam = 0.25
    c = 1.5 + 0.5 * np.sin(x)
    approx = (1.0 + lam) * c * 2.0 / (1.0 + lam * c)
    assert np.abs(reg.theta_of(2.0) - approx).max() < 1e-3


def test_state_value_round_trip():
    g = MonotoneGraph.sign_plus_identity()
    x = np.linspace(-0.875, 0.875, 8)
    field = ThetaField.separable_pwc(x, g, [0.0], [1.0, 2.0])
    reg = regularize_theta(field, 4, -5.0, 5.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, size=8)
    v = reg.v_of_u(u)
    assert np.abs(reg.u_of_v(v) - u).max() < 1e-10
    U = rng.uniform(-2.0, 2.0, size=(5, 8))
    assert np.abs(reg.u_of_v(reg.v_of_u(U)) - U).max() < 1e-10


def test_field_validation():
    x = np.linspace(-1.0, 1.0, 8)
    g = MonotoneGraph.identity()
    with pytest.raises(ValueError):
        ThetaField.separable_pwc(x, g, [0.0], [1.0])
    with pytest.raises(ValueError):
        ThetaField.separable_pwc(x, g, [0.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        ThetaField.separable_smooth(x, g, lambda s: np.sin(s))
    with pytest.raises(ValueError):
        regularize_theta(ThetaField.homogeneous(x, g), 0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Inverse convergence
# ---------------------------------------------------------------------------


def test_inverse_convergence_matches_bisection_oracle():
    ns = [1, 2, 4, 8, 16]
    assert np.allclose(_oracle_arctan_inverse_errors(ns), ARCTAN_INVERSE_ERRORS, atol=2e-9)
    seq = [
        Table.from_function(
            lambda u, n=n: u + (2.0 / np.pi) * np.arctan(n * u), -3.0, 3.0, n=8193
        )
        for n in ns
    ]
    errors = check_inverse_convergence(seq, MonotoneGraph.sign_plus_identity(), (-2.0, 2.0))
    assert np.allclose(errors, ARCTAN_INVERSE_ERRORS, atol=5e-4)
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_inverse_convergence_rejects_plateau_limit():
    g = MonotoneGraph([-1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], [0.0], (1.0, 1.0))
    seq = [Table.from_function(lambda u: u, -3.0, 3.0)]
    with pytest.raises(ValueError):
        check_inverse_convergence(seq, g, (-2.0, 2.0))
