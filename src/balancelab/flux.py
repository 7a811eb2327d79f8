"""Flux curves, admissible parametrizations, and smooth approximants.

A flux A is continuous except at finitely many jump points z_k where it has
finite one-sided limits.  Jumps are handled by a change of variable: a
continuous nondecreasing surjective map U with a unit-length plateau
[alpha_k, alpha_k + 1] at each z_k, and the continuous curve
calA(s) in A(U(s)) that interpolates the jump affinely across the plateau.
Composing the inverse graph of U with the problem's monotone nonlinearity
turns a jump-continuous flux into a continuous one, at the price of extra
jumps in the graph; that inverse is exactly a MonotoneGraph.

The parametrization is anchored so that U^{-1} passes through (0, 0): the
gap containing v = 0 keeps s = v / gap_slope, plateaus of nonnegative jump
points slide right, plateaus of negative ones slide left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotone import MonotoneGraph, Table, mollifier_nodes


# ---------------------------------------------------------------------------
# FluxCurve: one knot list through samples and jump limits
# ---------------------------------------------------------------------------


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
        v = np.asarray(v, dtype=float)
        X, Y = self._X, self._Y
        out = np.interp(v, X, Y)
        s0 = (Y[1] - Y[0]) / (X[1] - X[0])
        out = np.where(v < X[0], Y[0] + s0 * (v - X[0]), out)
        s1 = (Y[-1] - Y[-2]) / (X[-1] - X[-2])
        out = np.where(v > X[-1], Y[-1] + s1 * (v - X[-1]), out)
        return float(out) if v.ndim == 0 else out

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

    U is continuous, nondecreasing, surjective, affine with slope
    ``gap_slope`` between unit plateaus; calA is continuous, follows the flux
    through U off plateaus and interpolates each jump affinely across its
    plateau.
    """

    flux: FluxCurve
    gap_slope: float
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def plateaus(self):
        return [
            (float(a), float(b), float(z))
            for a, b, z in zip(self.alpha, self.beta, self.flux.jump_z)
        ]

    def U(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        ss = np.atleast_1d(s)
        if len(self.alpha) == 0:
            out = ss.copy()
            return float(out[0]) if scalar else out
        z = self.flux.jump_z
        m = self.gap_slope
        i = np.searchsorted(self.alpha, ss, side="right") - 1
        below = i < 0
        ic = np.maximum(i, 0)
        on_plateau = (~below) & (ss <= self.beta[ic])
        out = np.where(
            below,
            z[0] + m * (ss - self.alpha[0]),
            np.where(on_plateau, z[ic], z[ic] + m * (ss - self.beta[ic])),
        )
        return float(out[0]) if scalar else out

    def calA(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        ss = np.atleast_1d(s)
        if len(self.alpha) == 0:
            out = self.flux.eval(ss)
            return float(out[0]) if scalar else out
        z = self.flux.jump_z
        i = np.searchsorted(self.alpha, ss, side="right") - 1
        ic = np.maximum(i, 0)
        on_plateau = (i >= 0) & (ss <= self.beta[ic])
        left = self.flux.jump_left[ic]
        right = self.flux.jump_right[ic]
        plateau_vals = left + (ss - self.alpha[ic]) * (right - left)
        v = self.U(ss)
        # keep gap values strictly inside their continuity interval so the
        # right-continuous flux evaluation never reads the wrong limit
        gap_lo = np.where(i >= 0, np.nextafter(z[ic], np.inf), -np.inf)
        nxt = np.minimum(i + 1, len(z) - 1)
        gap_hi = np.where(i + 1 < len(z), np.nextafter(z[nxt], -np.inf), np.inf)
        off_vals = self.flux.eval(np.clip(v, gap_lo, gap_hi))
        out = np.where(on_plateau, plateau_vals, off_vals)
        return float(out[0]) if scalar else out

    def s_of_v(self, v):
        """Inf of the U-preimage: gap coordinate, or alpha_k at a jump point."""
        v = np.asarray(v, dtype=float)
        scalar = v.ndim == 0
        vv = np.atleast_1d(v)
        z = self.flux.jump_z
        zn = np.searchsorted(z, 0.0, side="left") if len(z) else 0
        shift = np.searchsorted(z, vv, side="left") - zn
        out = vv / self.gap_slope + shift
        return float(out[0]) if scalar else out

    def s_sup_of_v(self, v):
        """Sup of the U-preimage (beta_k at a jump point)."""
        v = float(v)
        base = self.s_of_v(v)
        k = np.searchsorted(self.flux.jump_z, v)
        if k < len(self.flux.jump_z) and self.flux.jump_z[k] == v:
            return base + 1.0
        return base

    def inverse_graph(self):
        """U^{-1} as a maximal monotone graph (contains (0, 0) by anchoring)."""
        z = self.flux.jump_z
        if len(z) == 0:
            return MonotoneGraph.line(1.0)
        m = self.gap_slope
        jumps = np.stack([self.alpha, self.beta], axis=1)
        slopes = np.full(len(z) - 1, 1.0 / m)
        return MonotoneGraph(z, jumps, slopes, (1.0 / m, 1.0 / m))

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
        return Parametrization(flux, 1.0, np.empty(0), np.empty(0))
    zn = np.searchsorted(z, 0.0, side="left")
    shift = np.arange(len(z)) - zn
    alpha = z / gap_slope + shift
    return Parametrization(flux, gap_slope, alpha, alpha + 1.0)


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
    s_lo = float(par.s_of_v(lo))
    s_hi = float(par.s_sup_of_v(hi))
    return mollify_callable(par.calA, j, s_lo, s_hi)
