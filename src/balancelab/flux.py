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
# FluxCurve: sampled continuous pieces separated by jump points
# ---------------------------------------------------------------------------


@dataclass
class FluxCurve:
    """Sampled flux with finitely many jump discontinuities.

    ``xs``/``ys`` sample the curve at continuity points; each jump point
    carries its one-sided limits, which anchor the neighbouring pieces.
    Evaluation interpolates within a piece and extends the outermost pieces
    linearly with their edge slopes; at a jump point it is right-continuous,
    with the filled interval available through ``value_set``.
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
        self._pieces = self._assemble_pieces()

    def _assemble_pieces(self):
        """Knot arrays per inter-jump piece, with jump limits as anchors."""
        z = self.jump_z
        J = len(z)
        pieces = []
        for p in range(J + 1):
            lo = -np.inf if p == 0 else z[p - 1]
            hi = np.inf if p == J else z[p]
            mask = (self.xs > lo) & (self.xs < hi)
            X = list(self.xs[mask])
            Y = list(self.ys[mask])
            if p > 0:
                X = [z[p - 1]] + X
                Y = [self.jump_right[p - 1]] + Y
            if p < J:
                X = X + [z[p]]
                Y = Y + [self.jump_left[p]]
            if len(X) < 2:
                raise ValueError("each outer piece needs a sample beyond the jump set")
            pieces.append((np.asarray(X), np.asarray(Y)))
        return pieces

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
        scalar = v.ndim == 0
        vv = np.atleast_1d(v)
        out = np.empty_like(vv)
        pidx = np.searchsorted(self.jump_z, vv, side="right")
        for p, (X, Y) in enumerate(self._pieces):
            mask = pidx == p
            if not mask.any():
                continue
            vals = np.interp(vv[mask], X, Y)
            if p == 0:
                below = vv[mask] < X[0]
                s0 = (Y[1] - Y[0]) / (X[1] - X[0])
                vals = np.where(below, Y[0] + s0 * (vv[mask] - X[0]), vals)
            if p == len(self._pieces) - 1:
                above = vv[mask] > X[-1]
                s1 = (Y[-1] - Y[-2]) / (X[-1] - X[-2])
                vals = np.where(above, Y[-1] + s1 * (vv[mask] - X[-1]), vals)
            out[mask] = vals
        return float(out[0]) if scalar else out

    def value_set(self, v):
        """Scalar value interval: filled [min, max] of the limits at jumps."""
        v = float(v)
        k = np.searchsorted(self.jump_z, v)
        if k < len(self.jump_z) and self.jump_z[k] == v:
            l, r = self.jump_left[k], self.jump_right[k]
            return (min(l, r), max(l, r))
        a = self.eval(v)
        return (a, a)

    def range_on(self, lo, hi, n=129):
        """(min, max) of the filled curve over [lo, hi]."""
        vs = np.linspace(lo, hi, n)
        vals = self.eval(vs)
        acc = [float(vals.min()), float(vals.max())]
        inside = (self.jump_z >= lo) & (self.jump_z <= hi)
        for l, r in zip(self.jump_left[inside], self.jump_right[inside]):
            acc[0] = min(acc[0], l, r)
            acc[1] = max(acc[1], l, r)
        knots = self.xs[(self.xs >= lo) & (self.xs <= hi)]
        if len(knots):
            kv = self.eval(knots)
            acc[0] = min(acc[0], float(kv.min()))
            acc[1] = max(acc[1], float(kv.max()))
        return acc[0], acc[1]

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

    def export_csv(self, path, s_lo, s_hi, n=1001):
        """Write sampled rows s, U(s), calA(s)."""
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


def mollify_callable(fn, j, lo, hi, n_samples=4097):
    """Sampled mollification of a scalar curve with radius 1/j on [lo, hi],
    as a one-row Table."""
    if j < 1:
        raise ValueError("approximation index j must be >= 1")
    r = 1.0 / j
    nodes, weights = mollifier_nodes()
    grid = np.linspace(lo, hi, n_samples)
    pts = grid[:, None] - r * nodes[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape) @ weights
    return Table(lo, hi, vals)


def smooth_flux(flux, j, lo, hi, n_samples=4097, gap_slope=1.0):
    """Mollified flux approximant with radius 1/j on a working compact.

    Continuous fluxes are mollified directly in v.  Jump-continuous fluxes
    are first reparametrized; the returned curve then samples the mollified
    calA over the image [s(lo), s(hi)] of the plateau-filled variable.
    """
    if not flux.has_jumps:
        return mollify_callable(flux.eval, j, lo, hi, n_samples)
    par = build_parametrization(flux, gap_slope)
    s_lo = float(par.s_of_v(lo))
    s_hi = float(par.s_sup_of_v(hi))
    return mollify_callable(par.calA, j, s_lo, s_hi, n_samples)
