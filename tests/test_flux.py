"""Tests for flux curves, plateau parametrizations, smooth approximants,
and the graph composition that absorbs flux jumps into the nonlinearity.

Frozen numbers come from hand constructions of the plateau bookkeeping and
from kernel-moment formulas; resolvent cross-checks run against the
bisection oracle.
"""

import glob
import json
import os

import numpy as np
import pytest

from balancelab.config import load_config
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

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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
    lo, hi = par.inverse.value_interval(0.0)
    assert lo == 0.0
    assert hi == 1.0


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
    assert par.inverse.value_interval(1.0)[0] == 0.5


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
    got = par.calA(par.inverse.eval(vs)[0])
    assert np.abs(got - A.eval(vs)).max() < 1e-10


def test_continuous_flux_trivial_parametrization():
    A = FluxCurve.from_function(lambda v: 0.5 * v * v, -2.0, 2.0)
    par = build_parametrization(A)
    assert par.plateaus == []
    ss = np.linspace(-1.5, 1.5, 11)
    assert np.array_equal(par.U(ss), ss)
    assert np.array_equal(par.calA(ss), A.eval(ss))
    assert isinstance(par.inverse, MonotoneGraph)
    assert par.inverse.tail_slopes == (1.0, 1.0)


def test_inverse_graph_contains_origin_and_inverts_U():
    par = build_parametrization(two_jump_flux())
    g = par.inverse
    assert np.allclose(g.breakpoints, [-2.0, 3.0])
    assert np.allclose(g.jumps, [[-3.0, -2.0], [3.0, 4.0]])
    assert g.value_interval(0.0) == (0.0, 0.0)
    # g really is U^{-1}: U(g(v)) == v for a spread of values
    for v in np.linspace(-5.0, 6.0, 23):
        lo, hi = g.value_interval(float(v))
        assert par.U(lo) == pytest.approx(v, abs=1e-12)
        assert par.U(hi) == pytest.approx(v, abs=1e-12)


def _closed_forms(flux, gap_slope):
    """Oracle: U, calA and the two ends of the s-interval of v in the
    closed forms the plateau map had before it read U^{-1} as a
    MonotoneGraph: searchsorted over the plateau starts, and a flux read
    clipped strictly inside each continuity gap."""
    z = flux.jump_z
    m = gap_slope if len(z) else 1.0
    alpha = z / m + (np.arange(len(z)) - np.searchsorted(z, 0.0))
    beta = alpha + 1.0

    def U(s):
        if len(z) == 0:
            return s.copy()
        i = np.searchsorted(alpha, s, side="right") - 1
        ic = np.maximum(i, 0)
        on_plateau = (i >= 0) & (s <= beta[ic])
        return np.where(i < 0, z[0] + m * (s - alpha[0]),
                        np.where(on_plateau, z[ic], z[ic] + m * (s - beta[ic])))

    def calA(s):
        if len(z) == 0:
            return flux.eval(s)
        i = np.searchsorted(alpha, s, side="right") - 1
        ic = np.maximum(i, 0)
        on_plateau = (i >= 0) & (s <= beta[ic])
        left, right = flux.jump_left[ic], flux.jump_right[ic]
        gap_lo = np.where(i >= 0, np.nextafter(z[ic], np.inf), -np.inf)
        nxt = np.minimum(i + 1, len(z) - 1)
        gap_hi = np.where(i + 1 < len(z), np.nextafter(z[nxt], -np.inf), np.inf)
        return np.where(on_plateau, left + (s - alpha[ic]) * (right - left),
                        flux.eval(np.clip(U(s), gap_lo, gap_hi)))

    def s_lo(v):
        return v / m + (np.searchsorted(z, v) - np.searchsorted(z, 0.0))

    def s_hi(v):
        return s_lo(v) + np.isin(v, z)

    return U, calA, s_lo, s_hi


def _oracle_points(rng, flux, s_lo, s_hi):
    """v: every sample and jump point, their neighbours, random points and
    points beyond both ends; s: the same for the s-images of the knots."""
    def spread(knots):
        lo, hi = knots.min(), knots.max()
        return np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                               rng.uniform(lo, hi, 64), lo - rng.uniform(0.0, 50.0, 8),
                               hi + rng.uniform(0.0, 50.0, 8), [lo - 1e3, hi + 1e3]])
    knots = np.concatenate([flux.xs, flux.jump_z])
    return spread(knots), spread(np.concatenate([s_lo(knots), s_hi(knots)]))


def _compare_with_closed_forms(par, rng, exact):
    U, calA, s_lo, s_hi = _closed_forms(par.flux, par.gap_slope)
    vs, ss = _oracle_points(rng, par.flux, s_lo, s_hi)
    got = {"U": par.U(ss), "calA": par.calA(ss)}
    got["s_lo"], got["s_hi"] = par.inverse.eval(vs)
    want = {"U": U(ss), "calA": calA(ss), "s_lo": s_lo(vs), "s_hi": s_hi(vs)}
    if exact:
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        return
    # each closed form rounds at the magnitude of the terms it adds: the
    # plateau anchors for s, the jump points and gap_slope times s for U
    knots = np.concatenate([par.flux.xs, par.flux.jump_z])
    r_s = max(1.0, np.abs(np.concatenate([s_lo(knots), s_hi(knots)])).max())
    r_v = max(1.0, np.abs(par.flux.jump_z).max(initial=0.0), par.gap_slope * r_s)
    r_a = max(1.0, np.abs(par.flux._Y).max())
    for key, tol, scale in (("s_lo", 1e-15, r_s), ("s_hi", 1e-15, r_s),
                            ("U", 1e-15, r_v), ("calA", 1e-12, r_a)):
        bound = tol * np.maximum(np.abs(want[key]), scale)
        assert np.all(np.abs(got[key] - want[key]) <= bound), key


def test_plateau_map_matches_closed_form_oracle():
    rng = np.random.default_rng(1404)
    for _ in range(400):
        n_x, n_z = int(rng.integers(2, 7)), int(rng.integers(0, 4))
        pts = np.sort(rng.choice(np.arange(-12, 13), n_x + n_z, replace=False)
                      + rng.uniform(-0.4, 0.4))
        is_z = np.zeros(len(pts), dtype=bool)
        is_z[1 + rng.permutation(len(pts) - 2)[:n_z]] = True
        left, right = rng.normal(size=(2, n_z))
        A = FluxCurve(pts[~is_z], rng.normal(size=n_x), pts[is_z], left, right)
        par = build_parametrization(A, float(np.exp(rng.uniform(np.log(0.25), np.log(1e3)))))
        # without jumps U(s) = s and calA = A exactly
        _compare_with_closed_forms(par, rng, exact=not A.has_jumps)
        if not A.has_jumps:
            ss = rng.uniform(-20.0, 20.0, 16)
            assert np.array_equal(par.U(ss), ss)
            assert np.array_equal(par.calA(ss), A.eval(ss))


def test_plateau_map_exact_on_shipped_configs():
    rng = np.random.default_rng(17)
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        spec = load_config(path).problem
        _compare_with_closed_forms(build_parametrization(spec.flux, spec.gap_slope),
                                   rng, exact=True)


@pytest.mark.filterwarnings("error")
def test_plateau_map_with_knots_ulps_from_a_jump_and_steep_gaps():
    # a sample a few ulps from a jump point maps to the same s as the jump's
    # plateau end when the gap slope is large; those knots merge and the
    # later one wins, as at a doubled abscissa of FluxCurve.eval
    A = FluxCurve([-1.0, 1e-17, 1.0], [0.0, 7.0, 1.0], [0.0], [0.0], [0.5])
    par = build_parametrization(A)
    assert par.inverse.value_interval(1e-17) == (1.0, 1.0)
    assert par.calA(0.0) == 0.0
    assert par.calA(1.0) == 7.0
    assert par.calA(0.5) == pytest.approx(0.25, abs=1e-15)
    rng = np.random.default_rng(6)
    merged = 0
    for trial in range(200):
        z = np.sort(rng.choice(np.arange(-6, 7), int(rng.integers(1, 4)), replace=False)
                    + rng.uniform(-0.25, 0.25))
        ulps = rng.integers(1, 5, size=(2, len(z)))
        below, above = z, z
        for i in range(4):
            below = np.where(i < ulps[0], np.nextafter(below, -np.inf), below)
            above = np.where(i < ulps[1], np.nextafter(above, np.inf), above)
        xs = np.sort(np.concatenate([[z[0] - 1.0, z[-1] + 1.0], below, above]))
        left, right = rng.normal(size=(2, len(z)))
        A = FluxCurve(xs, rng.normal(size=len(xs)), z, left, right)
        gap_slope = 1e6 if trial % 2 else float(np.exp(rng.uniform(0.0, np.log(1e6))))
        par = build_parametrization(A, gap_slope)
        U, calA, s_lo, s_hi = _closed_forms(A, gap_slope)
        vs, ss = _oracle_points(rng, A, s_lo, s_hi)
        lo, hi = par.inverse.eval(vs)
        for got, want in ((par.U(ss), U(ss)), (par.calA(ss), calA(ss)),
                          (lo, s_lo(vs)), (hi, s_hi(vs))):
            assert not np.any(np.isnan(got) & np.isfinite(want))
        for (a, b, _), left_k, right_k, x_next in zip(par.plateaus, left, right, above):
            assert par.calA(a) == left_k
            s_next, _ = par.inverse.value_interval(x_next)
            if s_next == b:
                merged += 1
                assert par.calA(b) == A.ys[np.searchsorted(A.xs, x_next)]
            else:
                assert par.calA(b) == right_k
    assert merged > 100


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
    return build_parametrization(curve).inverse


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
