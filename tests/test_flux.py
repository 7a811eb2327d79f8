"""Tests for flux curves, plateau parametrizations, smooth approximants,
and the graph composition that absorbs flux jumps into the nonlinearity.

Frozen numbers come from hand constructions of the plateau bookkeeping and
from kernel-moment formulas; resolvent cross-checks run against the
bisection oracle.
"""

import json

import numpy as np
import pytest

from balancelab.flux import (
    FluxCurve,
    Parametrization,
    build_parametrization,
    smooth_flux,
)
from balancelab.monotone import (
    MonotoneGraph,
    ThetaRegularization,
    compose_graphs,
    mollifier_nodes,
    regularize_theta,
    resolvent,
)
from conftest import resolvent_bisect


def heaviside_flux():
    """Flux 0 below 0, 1 above: single jump (0, 0, 1)."""
    return FluxCurve.from_pieces(lambda v: (v >= 0.0) * 1.0, [(0.0, 0.0, 1.0)], -2.0, 2.0, n=33)


def two_jump_flux():
    """v + 2 H(v+2) + H(v-3): jumps (-2, -2, 0) and (3, 5, 6)."""
    fn = lambda v: v + 2.0 * (v >= -2.0) + 1.0 * (v >= 3.0)
    return FluxCurve.from_pieces(fn, [(-2.0, -2.0, 0.0), (3.0, 5.0, 6.0)], -5.0, 6.0, n=89)


# ---------------------------------------------------------------------------
# FluxCurve basics
# ---------------------------------------------------------------------------


def test_eval_right_continuous_and_value_set():
    A = heaviside_flux()
    assert A.eval(0.0) == 1.0
    assert (A.jump_left[0], A.jump_right[0]) == (0.0, 1.0)
    assert A.eval(-0.3) == 0.0
    assert A.eval(0.3) == 1.0


def test_continuous_flux_interp_and_extension():
    A = FluxCurve.from_function(lambda v: 0.5 * v * v, -2.0, 2.0, n=2049)
    vs = np.linspace(-1.9, 1.9, 101)
    assert np.abs(A.eval(vs) - 0.5 * vs**2).max() < 1e-6
    # linear extension with the edge slope beyond the samples
    edge = A.eval(2.0)
    slope = (A.eval(2.0) - A.eval(2.0 - A.xs[1] + A.xs[0])) / (A.xs[1] - A.xs[0])
    assert A.eval(3.0) == pytest.approx(edge + slope * 1.0, rel=1e-10)


# one case per rejection message; an outer piece with no sample is
# rejected below the first jump point and above the last one, with or
# without a sample between the jumps
FLUX_REJECTIONS = [
    (([0.0], [0.0], [], [], []), "need at least two samples"),
    (([1.0, 0.0], [0.0, 0.0], [], [], []), "strictly increasing"),
    (([0.0, 1.0], [0.0, np.nan], [], [], []), "samples must be finite"),
    (([-1.0, 1.0], [0.0, 0.0], [0.0], [0.0, 1.0], [1.0]), "equal length"),
    (([-1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]), "overlapping"),
    (([-1.0, 1.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [1.0, 1.0]), "unsorted"),
    (([-1.0, 1.0], [0.0, 0.0], [0.0], [np.inf], [1.0]), "limits must be finite"),
    (([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0], [0.0], [1.0]), "exactly on a jump"),
    (([1.0, 2.0], [1.0, 1.0], [0.0], [0.0], [1.0]), "outer piece"),
    (([1.5, 2.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 2.0]), "outer piece"),
    (([-2.0, -1.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 2.0]), "outer piece"),
    (([-1.0, 0.5], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 2.0]), "outer piece"),
]


def test_flux_validation():
    for args, message in FLUX_REJECTIONS:
        with pytest.raises(ValueError, match=message):
            FluxCurve(*args)


def _per_piece_eval(A, v):
    """Oracle: np.interp on each inter-jump piece, anchored by the jump
    limits, with the outermost pieces extended by their edge slopes."""
    z = A.jump_z
    bounds = np.concatenate(([-np.inf], z, [np.inf]))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty_like(v)
    piece = np.searchsorted(z, v, side="right")
    for p in range(len(z) + 1):
        inside = (A.xs > bounds[p]) & (A.xs < bounds[p + 1])
        X, Y = list(A.xs[inside]), list(A.ys[inside])
        if p > 0:
            X, Y = [z[p - 1]] + X, [A.jump_right[p - 1]] + Y
        if p < len(z):
            X, Y = X + [z[p]], Y + [A.jump_left[p]]
        vp = v[piece == p]
        vals = np.interp(vp, X, Y)
        if p == 0:
            s0 = (Y[1] - Y[0]) / (X[1] - X[0])
            vals = np.where(vp < X[0], Y[0] + s0 * (vp - X[0]), vals)
        if p == len(z):
            s1 = (Y[-1] - Y[-2]) / (X[-1] - X[-2])
            vals = np.where(vp > X[-1], Y[-1] + s1 * (vp - X[-1]), vals)
        out[piece == p] = vals
    return out


@pytest.mark.filterwarnings("error")
def test_knot_list_eval_matches_per_piece_oracle():
    # a jump point enters the knot list twice, and np.interp must neither
    # warn on the zero-width interval nor read the left limit at z
    rng = np.random.default_rng(20140408)
    for _ in range(400):
        n_x, n_z = int(rng.integers(2, 7)), int(rng.integers(0, 5))
        pts = np.sort(rng.choice(np.arange(-12, 13), n_x + n_z, replace=False)
                      + rng.uniform(-0.4, 0.4))
        # outer knots are samples; inner ones are shuffled, so some jump
        # pairs have no sample between them
        is_z = np.zeros(len(pts), dtype=bool)
        is_z[1 + rng.permutation(len(pts) - 2)[:n_z]] = True
        z = pts[is_z]
        left, right = rng.normal(size=(2, len(z)))
        if len(z) and rng.random() < 0.2:
            right[0] = left[0]  # a removable jump
        A = FluxCurve(pts[~is_z], rng.normal(size=(~is_z).sum()), z, left, right)
        v = np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf),
                            rng.uniform(pts[0] - 5.0, pts[-1] + 5.0, 64),
                            [pts[0] - 1e3, pts[-1] + 1e3]])
        assert np.array_equal(A.eval(v), _per_piece_eval(A, v))
        assert np.array_equal(A.eval(v.reshape(3, -1)), _per_piece_eval(A, v).reshape(3, -1))
        for s in v[:: 7]:
            got = A.eval(s)
            assert type(got) is float and got == _per_piece_eval(A, s)[0]


def test_flux_json_round_trip():
    A = two_jump_flux()
    d = json.loads(json.dumps(A.to_dict()))
    B = FluxCurve.from_dict(d)
    vs = np.linspace(-5.0, 6.0, 301)
    assert np.array_equal(B.eval(vs), A.eval(vs))
    assert np.array_equal(B.jump_z, A.jump_z)


# ---------------------------------------------------------------------------
# Parametrization
# ---------------------------------------------------------------------------


def test_single_jump_plateau_hand_values():
    # jump at z=0 from 0 to 1: plateau [0, 1], U == 0 there, calA(s) = s
    par = build_parametrization(heaviside_flux())
    assert par.plateaus == [(0.0, 1.0, 0.0)]
    assert par.U(-0.5) == -0.5
    assert par.U(0.3) == 0.0
    assert par.U(1.0) == 0.0
    assert par.U(2.0) == 1.0
    assert par.calA(0.5) == pytest.approx(0.5, abs=1e-14)
    assert par.calA(-0.5) == 0.0
    assert par.calA(1.5) == 1.0
    assert par.s_of_v(0.0) == 0.0
    assert par.s_sup_of_v(0.0) == 1.0


def test_two_jump_plateau_bookkeeping():
    # jumps at -2 and 3 with unit plateaus; zero-anchored: the negative
    # plateau slides left, so U^{-1}(0) = 0
    par = build_parametrization(two_jump_flux())
    assert par.plateaus == [(-3.0, -2.0, -2.0), (3.0, 4.0, 3.0)]
    assert par.U(0.0) == 0.0
    assert par.U(-2.5) == -2.0
    assert par.U(-3.5) == -2.5
    assert par.U(3.5) == 3.0
    assert par.U(5.0) == 4.0
    assert par.calA(-2.4) == pytest.approx(-0.8, abs=1e-12)
    assert par.calA(3.25) == pytest.approx(5.25, abs=1e-12)
    assert par.calA(0.0) == pytest.approx(2.0, abs=1e-12)
    # U strictly increasing off plateaus, constant exactly on them
    assert par.U(-2.0 - 1e-9) < par.U(-2.0) + 1e-12


def test_gap_slope_knob():
    par = build_parametrization(two_jump_flux(), gap_slope=2.0)
    assert par.plateaus == [(-2.0, -1.0, -2.0), (1.5, 2.5, 3.0)]
    assert par.U(0.0) == 0.0
    assert par.U(0.5) == 1.0
    assert par.s_of_v(1.0) == 0.5


def test_membership_invariant_on_grid():
    # calA(s) must lie in the filled value set of A at U(s): 10^4 points
    par = build_parametrization(two_jump_flux())
    ss = np.linspace(-6.0, 8.0, 10_000)
    ca = par.calA(ss)
    us = par.U(ss)
    A = par.flux
    for s, c, v in zip(ss, ca, us):
        # the filled value set: the jump's limits at a jump point, else A(v)
        at = np.flatnonzero(A.jump_z == v)
        ends = (A.jump_left[at], A.jump_right[at]) if len(at) else A.eval(v)
        assert np.min(ends) - 1e-9 <= c <= np.max(ends) + 1e-9


def test_parametrization_reproduces_flux_at_continuity_points():
    A = two_jump_flux()
    par = build_parametrization(A)
    vs = np.linspace(-4.9, 5.9, 997)
    vs = vs[np.abs(vs - (-2.0)) > 1e-6]
    vs = vs[np.abs(vs - 3.0) > 1e-6]
    got = par.calA(par.s_of_v(vs))
    assert np.abs(got - A.eval(vs)).max() < 1e-10


def test_continuous_flux_trivial_parametrization():
    A = FluxCurve.from_function(lambda v: 0.5 * v * v, -2.0, 2.0)
    par = build_parametrization(A)
    assert par.plateaus == []
    ss = np.linspace(-1.5, 1.5, 11)
    assert np.array_equal(par.U(ss), ss)
    assert np.array_equal(par.calA(ss), A.eval(ss))
    assert isinstance(par.inverse_graph(), MonotoneGraph)
    assert par.inverse_graph().tail_slopes == (1.0, 1.0)


def test_inverse_graph_contains_origin_and_inverts_U():
    par = build_parametrization(two_jump_flux())
    g = par.inverse_graph()
    assert np.allclose(g.breakpoints, [-2.0, 3.0])
    assert np.allclose(g.jumps, [[-3.0, -2.0], [3.0, 4.0]])
    assert g.value_interval(0.0) == (0.0, 0.0)
    # g really is U^{-1}: U(g(v)) == v for a spread of values
    for v in np.linspace(-5.0, 6.0, 23):
        lo, hi = g.value_interval(float(v))
        assert par.U(lo) == pytest.approx(v, abs=1e-12)
        assert par.U(hi) == pytest.approx(v, abs=1e-12)


def test_export_csv(tmp_path):
    par = build_parametrization(heaviside_flux())
    path = tmp_path / "par.csv"
    par.export_csv(path, -1.0, 2.0, n=7)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (7, 3)
    assert rows[0, 0] == -1.0
    assert np.all(np.diff(rows[:, 1]) >= 0)


# ---------------------------------------------------------------------------
# Smooth approximants
# ---------------------------------------------------------------------------


def test_smooth_flux_exact_on_affine_and_constant():
    aff = FluxCurve.from_function(lambda v: 2.0 * v + 1.0, -3.0, 3.0)
    sm = smooth_flux(aff, 5, -2.0, 2.0)
    vs = np.linspace(-2.0, 2.0, 41)
    assert np.abs(sm(0, vs) - (2.0 * vs + 1.0)).max() < 1e-10
    const = FluxCurve.from_function(lambda v: np.full_like(v, 3.25), -3.0, 3.0)
    sm = smooth_flux(const, 7, -2.0, 2.0)
    assert np.abs(sm(0, vs) - 3.25).max() < 1e-12


def test_smooth_flux_kernel_moment_oracle_and_convergence():
    # mollifying v^2/2 with a symmetric unit-mass kernel of radius 1/j adds
    # exactly m2/(2 j^2), m2 the kernel second moment
    nodes, weights = mollifier_nodes()
    m2 = float(weights @ nodes**2)
    A = FluxCurve.from_function(lambda v: 0.5 * v * v, -3.0, 3.0)
    vs = np.linspace(-2.0, 2.0, 401)
    errs = []
    for j in (2, 4, 8, 16):
        sm = smooth_flux(A, j, -2.0, 2.0)
        err = float(np.abs(sm(0, vs) - 0.5 * vs**2).max())
        assert err == pytest.approx(m2 / (2.0 * j * j), rel=2e-2)
        assert err < 2.0 / j  # Lip bound on the compact
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 1.5
    assert sm.lipschitz <= 2.0 + 1e-6


def test_smooth_flux_jumpy_lives_in_plateau_variable():
    A = heaviside_flux()
    sm = smooth_flux(A, 4, -2.0, 2.0)
    assert sm.lo == -2.0
    assert sm.hi == 3.0
    # kernel radius 1/4 fits inside the plateau: the affine fill is exact
    assert sm(0, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert sm(0, -1.0) == pytest.approx(0.0, abs=1e-12)
    assert sm(0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_smooth_flux_rejects_bad_j():
    with pytest.raises(ValueError):
        smooth_flux(heaviside_flux(), 0, -1.0, 1.0)
    with pytest.raises(ValueError):
        build_parametrization(heaviside_flux(), gap_slope=0.0)


# ---------------------------------------------------------------------------
# Graph composition (flux jumps absorbed into the nonlinearity)
# ---------------------------------------------------------------------------


def jump_inverse(z, left=None, right=None):
    """U^{-1} graph for a flux with a single jump at z."""
    fn = lambda v: np.where(v >= z, v + 1.0, v)
    curve = FluxCurve.from_pieces(fn, [(z, z, z + 1.0)], z - 5.0, z + 5.0, n=65)
    return build_parametrization(curve).inverse_graph()


def test_compose_jump_meets_graph_jump():
    # flux jump at 1 composed with u + Sgn(u): single merged jump [-1, 2]
    comp = compose_graphs(jump_inverse(1.0), MonotoneGraph.sign_plus_identity())
    assert np.allclose(comp.breakpoints, [0.0])
    assert np.allclose(comp.jumps, [[-1.0, 2.0]])
    assert comp.tail_slopes == (1.0, 1.0)


def test_compose_jump_on_segment():
    # flux jump at 3 is reached on the right tail of u + Sgn(u) at u = 2
    comp = compose_graphs(jump_inverse(3.0), MonotoneGraph.sign_plus_identity())
    assert np.allclose(comp.breakpoints, [0.0, 2.0])
    assert np.allclose(comp.jumps, [[-1.0, 1.0], [3.0, 4.0]])
    assert np.allclose(comp.slopes, [1.0])
    assert comp.tail_slopes == (1.0, 1.0)


def test_compose_jump_inside_graph_jump_is_absorbed():
    comp = compose_graphs(jump_inverse(0.5), MonotoneGraph.sign_plus_identity())
    assert np.allclose(comp.breakpoints, [0.0])
    assert np.allclose(comp.jumps, [[-1.0, 2.0]])


def test_compose_rejects_jump_at_plateau_value():
    inner = MonotoneGraph.from_knots(
        [(0.0, 0.0), (1.0, 1.0), (3.0, 1.0), (4.0, 2.0)], (1.0, 1.0)
    )
    with pytest.raises(ValueError):
        compose_graphs(jump_inverse(1.0), inner)


def test_compose_with_lines():
    g = MonotoneGraph.sign_plus_identity()
    doubled = compose_graphs(MonotoneGraph.line(2.0), g)
    assert np.allclose(doubled.jumps, [[-2.0, 2.0]])
    halved_in = compose_graphs(g, MonotoneGraph.line(0.5))
    assert np.allclose(halved_in.breakpoints, [0.0])
    assert halved_in.tail_slopes == (0.5, 0.5)
    assert halved_in.value_interval(4.0) == (3.0, 3.0)


def test_composed_resolvent_matches_bisection():
    comp = compose_graphs(jump_inverse(3.0), MonotoneGraph.sign_plus_identity())
    rng = np.random.default_rng(23)
    for w in rng.uniform(-8.0, 8.0, size=40):
        lam = float(rng.uniform(0.1, 2.0))
        assert abs(resolvent(comp, lam, float(w)) - resolvent_bisect(comp, lam, float(w))) < 1e-9


# ---------------------------------------------------------------------------
# Composition diagnostics
# ---------------------------------------------------------------------------


def composed_flux(x_cell, u, theta, curve):
    """Value (or value range) of the flux over theta(x_cell, u).

    With a regularized theta the composition is single-valued and a float is
    returned; with a raw MonotoneGraph (the same in every cell) the result
    is a float off jumps and the (min, max) of the flux over the jump's
    interval across them.
    """
    flux = curve.eval if isinstance(curve, FluxCurve) else lambda v: curve(0, v)
    if isinstance(theta, ThetaRegularization):
        return float(flux(float(theta.v_of_u(u)[x_cell])))
    lo, hi = theta.eval(u)
    lo, hi = float(lo[0]), float(hi[0])
    if lo == hi:
        return float(flux(lo))
    vals = flux(np.linspace(lo, hi, 129))
    return (float(vals.min()), float(vals.max()))


def test_composed_flux_values():
    burgers = FluxCurve.from_function(lambda v: 0.5 * v * v, -3.0, 3.0)
    ident = MonotoneGraph.identity()
    assert composed_flux(3, 2.0, ident, burgers) == pytest.approx(2.0, abs=1e-6)
    sgn = MonotoneGraph.sign()
    iden_curve = FluxCurve.from_function(lambda v: v, -3.0, 3.0)
    lo, hi = composed_flux(0, 0.0, sgn, iden_curve)
    assert (lo, hi) == (-1.0, 1.0)
    # regularized identity theta is the identity, so the composition is A
    reg = regularize_theta(ident, np.ones((8, 1)), [1.0], 100, -4.0, 4.0)
    val = composed_flux(0, 2.0, reg, burgers)
    assert val == pytest.approx(2.0, abs=1e-5)


def test_composed_flux_with_sampled_curve():
    sgn = MonotoneGraph.sign()
    sm = smooth_flux(FluxCurve.from_function(lambda v: v * v, -3.0, 3.0), 50, -2.0, 2.0)
    lo, hi = composed_flux(0, 0.0, sgn, sm)
    assert lo == pytest.approx(0.0, abs=1e-3)
    assert hi == pytest.approx(1.0, abs=1e-3)
