"""Flux curves, admissible parametrizations, and smooth approximants.

A flux A is continuous except at finitely many jump points z_k where it has
finite one-sided limits.  Jumps are handled by a change of variable: a
continuous nondecreasing surjective map U with a unit-length plateau
[alpha_k, alpha_k + 1] at each z_k, and the continuous curve
calA(s) in A(U(s)) that interpolates the jump affinely across the plateau.
Composing the inverse graph of U with the problem's monotone nonlinearity
turns a jump-continuous flux into a continuous one, at the price of extra
jumps in the graph; that inverse is exactly a MonotoneGraph, and it is the
one thing a Parametrization stores.  U is read from the graph's inverse,
calA from the flux's own knot list mapped into s.

The parametrization is anchored so that U^{-1} passes through (0, 0): the
gap containing v = 0 keeps s = v / gap_slope, plateaus of nonnegative jump
points slide right, plateaus of negative ones slide left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotone import MonotoneGraph, Table, invert_graph, mollifier_nodes


# ---------------------------------------------------------------------------
# FluxCurve: one knot list through samples and jump limits
# ---------------------------------------------------------------------------


def _read_knots(x, X, Y, edge_slopes):
    """Linear between the knots (X, Y), X nondecreasing, taking the later
    knot at a repeated abscissa; beyond X[0] and X[-1] linear with the
    edge slopes.  A scalar x returns a float."""
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x)
    out = np.interp(xs, X, Y)
    lo, hi = xs < X[0], xs > X[-1]
    out[lo] = Y[0] + edge_slopes[0] * (xs[lo] - X[0])
    out[hi] = Y[-1] + edge_slopes[1] * (xs[hi] - X[-1])
    return float(out[0]) if x.ndim == 0 else out


@dataclass
class FluxCurve:
    """Sampled flux with finitely many jump discontinuities.

    ``xs``/``ys`` sample the curve at continuity points; each jump point
    carries its one-sided limits.  Evaluation reads one knot list: the
    samples in order, with each jump point z_k entered twice, first as
    (z_k, left_k) and then as (z_k, right_k).  The curve is linear between
    knots, takes the later knot, the right limit, at a jump point, and
    extends linearly beyond the samples with its edge slopes;
    ``jump_left``/``jump_right`` hold the ends of the filled interval.
    """

    xs: np.ndarray
    ys: np.ndarray
    jump_z: np.ndarray
    jump_left: np.ndarray
    jump_right: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        self.jump_z = np.asarray(self.jump_z, dtype=float)
        self.jump_left = np.asarray(self.jump_left, dtype=float)
        self.jump_right = np.asarray(self.jump_right, dtype=float)
        if len(self.xs) < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if not (np.all(np.isfinite(self.ys)) and np.all(np.isfinite(self.xs))):
            raise ValueError("samples must be finite")
        if len(self.jump_z) != len(self.jump_left) or len(self.jump_z) != len(self.jump_right):
            raise ValueError("jump arrays must have equal length")
        if len(self.jump_z) and np.any(np.diff(self.jump_z) <= 0):
            raise ValueError("overlapping or unsorted jump points")
        if not np.all(np.isfinite(self.jump_left)) or not np.all(np.isfinite(self.jump_right)):
            raise ValueError("one-sided limits must be finite")
        if len(self.jump_z) and np.any(np.isin(self.xs, self.jump_z)):
            raise ValueError("samples may not sit exactly on a jump point")
        z = self.jump_z
        if len(z) and not (self.xs[0] < z[0] and self.xs[-1] > z[-1]):
            raise ValueError("each outer piece needs a sample beyond the jump set")
        # values inserted at one index keep their order: left, then right
        at = np.repeat(np.searchsorted(self.xs, z), 2)
        self._X = np.insert(self.xs, at, np.repeat(z, 2))
        self._Y = np.insert(self.ys, at, np.stack([self.jump_left, self.jump_right], 1).ravel())
        X, Y = self._X, self._Y
        self._edge_slopes = ((Y[1] - Y[0]) / (X[1] - X[0]),
                             (Y[-1] - Y[-2]) / (X[-1] - X[-2]))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_function(fn, lo, hi, n=4097):
        """Sample a continuous flux on [lo, hi] (no jumps)."""
        xs = np.linspace(lo, hi, n)
        return FluxCurve(xs, np.asarray(fn(xs), dtype=float), [], [], [])

    @staticmethod
    def from_pieces(fn, jumps, lo, hi, n=4097):
        """Sample a right-continuous callable and mark its jumps.

        ``jumps`` is a list of (z, left, right); samples landing exactly on
        a jump point are dropped (the limits anchor the pieces there).
        """
        xs = np.linspace(lo, hi, n)
        zs = np.asarray([j[0] for j in jumps], dtype=float)
        keep = ~np.isin(xs, zs)
        xs = xs[keep]
        return FluxCurve(
            xs,
            np.asarray(fn(xs), dtype=float),
            zs,
            [j[1] for j in jumps],
            [j[2] for j in jumps],
        )

    @property
    def has_jumps(self):
        return len(self.jump_z) > 0

    # -- evaluation ----------------------------------------------------------

    def eval(self, v):
        """Right-continuous pointwise values (vectorized)."""
        return _read_knots(v, self._X, self._Y, self._edge_slopes)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "samples": np.stack([self.xs, self.ys], axis=1).tolist(),
            "jumps": [
                {"z": z, "left": l, "right": r}
                for z, l, r in zip(
                    self.jump_z.tolist(), self.jump_left.tolist(), self.jump_right.tolist()
                )
            ],
        }

    @staticmethod
    def from_dict(d):
        samples = np.asarray(d["samples"], dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError("flux samples must be [v, A(v)] pairs")
        jumps = d.get("jumps", [])
        return FluxCurve(
            samples[:, 0],
            samples[:, 1],
            [j["z"] for j in jumps],
            [j["left"] for j in jumps],
            [j["right"] for j in jumps],
        )


# ---------------------------------------------------------------------------
# Admissible parametrization (U, calA)
# ---------------------------------------------------------------------------


@dataclass
class Parametrization:
    """Plateau-filling reparametrization of a jump-continuous flux.

    ``inverse`` is U^{-1}, a maximal monotone graph with a unit jump
    [alpha_k, alpha_k + 1] at each jump point z_k and slope 1/``gap_slope``
    elsewhere; its value set at v is the s-interval of v.  U is the lower
    branch of the inverse of that graph: continuous, nondecreasing,
    surjective, constant on each plateau.  calA reads the flux's own knot
    list in s: each knot abscissa goes to the lower end of its s-interval
    and the second copy of a jump point to its plateau end, so calA follows
    the flux off plateaus and interpolates each jump affinely across its
    plateau.  Knots that round to one s merge, and the later one wins.
    """

    flux: FluxCurve
    gap_slope: float
    inverse: MonotoneGraph

    @property
    def plateaus(self):
        return [
            (float(a), float(b), float(z))
            for (a, b), z in zip(self.inverse.jumps, self.inverse.breakpoints)
        ]

    def U(self, s):
        lo, _ = invert_graph(self.inverse).eval(s)
        return float(lo[0]) if np.ndim(s) == 0 else lo

    def calA(self, s):
        X = self.flux._X
        lo, hi = self.inverse.eval(X)
        second = np.concatenate([[False], X[1:] == X[:-1]])
        # a knot that rounds past the next plateau start is pulled back to it
        S = np.minimum.accumulate(np.where(second, hi, lo)[::-1])[::-1]
        # beyond the knots U has slope gap_slope, so the edge slopes in s are
        # the flux's times gap_slope: no division by a difference of s-knots
        slopes = [self.gap_slope * e for e in self.flux._edge_slopes]
        return _read_knots(s, S, self.flux._Y, slopes)

    def export_csv(self, path, s_lo, s_hi, n):
        """Write n sampled rows s, U(s), calA(s)."""
        ss = np.linspace(s_lo, s_hi, n)
        data = np.stack([ss, self.U(ss), self.calA(ss)], axis=1)
        header = "s,U,calA"
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def build_parametrization(flux, gap_slope=1.0):
    """Unit plateaus at every jump point, slope ``gap_slope`` in between."""
    if gap_slope <= 0:
        raise ValueError("gap slope must be positive")
    z = flux.jump_z
    if len(z) == 0:
        return Parametrization(flux, 1.0, MonotoneGraph.line(1.0))
    slope = 1.0 / gap_slope
    # each plateau's end facing 0 is z * slope plus a whole number, 0 next
    # to the origin, so the segment through 0 adds slope * (-z) to z * slope
    # and lands on 0 exactly, whatever the size of z * slope
    k = np.arange(len(z)) - np.searchsorted(z, 0.0)
    neg = z < 0
    end = z * slope + np.where(neg, k + 1, k)
    jumps = np.stack([np.where(neg, end - 1.0, end),
                      np.where(neg, end, end + 1.0)], axis=1)
    inverse = MonotoneGraph(z, jumps, np.full(len(z) - 1, slope),
                            (slope, slope))
    return Parametrization(flux, gap_slope, inverse)


# ---------------------------------------------------------------------------
# Smooth approximants
# ---------------------------------------------------------------------------


# samples of a mollified flux curve
FLUX_SAMPLES = 4097


def mollify_callable(fn, j, lo, hi):
    """Sampled mollification of a scalar curve with radius 1/j on [lo, hi],
    as a one-row Table of FLUX_SAMPLES samples."""
    if j < 1:
        raise ValueError("approximation index j must be >= 1")
    r = 1.0 / j
    nodes, weights = mollifier_nodes()
    grid = np.linspace(lo, hi, FLUX_SAMPLES)
    pts = grid[:, None] - r * nodes[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape) @ weights
    return Table(lo, hi, vals)


def smooth_flux(flux, j, lo, hi):
    """Mollified flux approximant with radius 1/j on a working compact.

    Continuous fluxes are mollified directly in v.  Jump-continuous fluxes
    are first reparametrized with unit gap slope; the returned curve then
    samples the mollified calA over the image [s(lo), s(hi)] of the
    plateau-filled variable.
    """
    if not flux.has_jumps:
        return mollify_callable(flux.eval, j, lo, hi)
    par = build_parametrization(flux)
    s_lo, _ = par.inverse.value_interval(lo)
    _, s_hi = par.inverse.value_interval(hi)
    return mollify_callable(par.calA, j, s_lo, s_hi)
