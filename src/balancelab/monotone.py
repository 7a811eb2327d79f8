"""Maximal monotone graphs on R and their resolvent / Yosida calculus.

A graph is stored in a canonical piecewise-affine form:

  * ``breakpoints``  strictly increasing abscissae b_0 < ... < b_{K-1}
  * ``jumps``        value interval [lo_i, hi_i] at each breakpoint (lo <= hi)
  * ``slopes``       affine slope on each segment (b_i, b_{i+1}), >= 0
  * ``tail_slopes``  affine slopes on (-inf, b_0) and (b_{K-1}, +inf), >= 0

Values chain continuously between jumps: the segment right of b_i starts at
hi_i and must reach lo_{i+1} at b_{i+1}, so vertical jumps exactly fill the
gaps and the graph is maximal monotone.  Every graph must contain (0, 0).

The resolvent (id + lam*theta)^(-1) is single-valued, nonexpansive and has a
closed form on each affine piece; the Yosida transform
theta_lam = (id - resolvent)/lam is the (1/lam)-Lipschitz single-valued
approximation used by the regularization pipeline.

The nonlinearity theta(x, u) = c(x) g(u) reaches this module only as
coefficient samples: ``regularize_theta`` takes one graph g and, per point,
a row of coefficient values with the weights that average their columns.
It knows no coefficient layout; ``ProblemSpec`` chooses the samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Chaining / containment slack for graph validation.
_CHAIN_TOL = 1e-9

# ---------------------------------------------------------------------------
# Mollifier kernel: the standard C-infinity bump on (-1, 1), sampled at the
# midpoints of 16 equal subintervals and normalized so the discrete weights
# sum to exactly 1 (constants are then reproduced exactly).
# ---------------------------------------------------------------------------

_N_KERNEL = 16


def _kernel_rule():
    h = 2.0 / _N_KERNEL
    nodes = -1.0 + (np.arange(_N_KERNEL) + 0.5) * h
    raw = np.exp(-1.0 / (1.0 - nodes**2))
    weights = raw / raw.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


_KERNEL_RULE = _kernel_rule()


def mollifier_nodes():
    """Return (nodes, weights) of the fixed 16-point midpoint kernel rule,
    read-only arrays computed once per process."""
    return _KERNEL_RULE


def bump_profile(y):
    """exp(1 - 1/(1 - y^2)) inside |y| < 1, zero outside; peak value 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - yi * yi))
    return out


# ---------------------------------------------------------------------------
# MonotoneGraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneGraph:
    """Canonical piecewise-affine maximal monotone graph with 0 in theta(0)."""

    breakpoints: np.ndarray  # (K,)
    jumps: np.ndarray        # (K, 2) value intervals [lo, hi]
    slopes: np.ndarray       # (K-1,) interior segment slopes
    tail_slopes: tuple       # (left, right)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "jumps", np.asarray(self.jumps, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "slopes", np.asarray(self.slopes, dtype=float))
        object.__setattr__(self, "tail_slopes", (float(self.tail_slopes[0]), float(self.tail_slopes[1])))
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self):
        b, j, s = self.breakpoints, self.jumps, self.slopes
        K = len(b)
        if j.shape != (K, 2):
            raise ValueError("jumps must have one [lo, hi] pair per breakpoint")
        if len(s) != max(K - 1, 0):
            raise ValueError("need one slope per interior segment")
        if K == 0:
            if self.tail_slopes[0] != self.tail_slopes[1]:
                raise ValueError("a graph without breakpoints is a single line; tail slopes must agree")
        if K and np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(j[:, 1] < j[:, 0]):
            raise ValueError("jump intervals need lo <= hi")
        if np.any(s < 0) or min(self.tail_slopes) < 0:
            raise ValueError("monotonicity requires nonnegative slopes")
        # segments must land exactly on the next jump's lower end (no holes)
        if K >= 2:
            landing = j[:-1, 1] + s * np.diff(b)
            if np.any(np.abs(landing - j[1:, 0]) > _CHAIN_TOL * np.maximum(1.0, np.abs(landing))):
                raise ValueError("segment values do not chain with the jump intervals")
        lo, hi = self.value_interval(0.0)
        if lo > _CHAIN_TOL or hi < -_CHAIN_TOL:
            raise ValueError("graph must contain (0, 0)")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def line(slope):
        """theta(u) = slope * u."""
        if slope < 0:
            raise ValueError("slope must be nonnegative")
        return MonotoneGraph(np.empty(0), np.empty((0, 2)), np.empty(0), (slope, slope))

    @staticmethod
    def identity():
        return MonotoneGraph.line(1.0)

    @staticmethod
    def sign(height=1.0, tail_slope=0.0):
        """The sign graph: jump [-height, height] at 0, flat tails by default."""
        return MonotoneGraph([0.0], [[-height, height]], [], (tail_slope, tail_slope))

    @staticmethod
    def sign_plus_identity(height=1.0):
        """theta(u) = u + height * Sgn(u); strictly increasing with one jump."""
        return MonotoneGraph([0.0], [[-height, height]], [], (1.0, 1.0))

    @staticmethod
    def from_knots(knots, tail_slopes):
        """Build a jump-free graph through (u, v) knots with affine pieces."""
        knots = np.asarray(knots, dtype=float)
        b = knots[:, 0]
        v = knots[:, 1]
        slopes = np.diff(v) / np.diff(b)
        jumps = np.stack([v, v], axis=1)
        return MonotoneGraph(b, jumps, slopes, tail_slopes)

    # -- evaluation ----------------------------------------------------------

    def value_interval(self, u):
        """Value set at scalar u as a closed interval (lo, hi)."""
        lo, hi = self.eval(np.asarray([u], dtype=float))
        return float(lo[0]), float(hi[0])

    def eval(self, u):
        """Vectorized value set: returns (lo, hi) arrays; lo == hi off jumps."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        b, j, s = self.breakpoints, self.jumps, self.slopes
        K = len(b)
        if K == 0:
            v = self.tail_slopes[0] * u
            return v, v.copy()
        idx = np.searchsorted(b, u, side="left")
        lo = np.empty_like(u)
        hi = np.empty_like(u)
        at_bp = (idx < K) & (u == b[np.minimum(idx, K - 1)])
        lo[at_bp] = j[idx[at_bp], 0]
        hi[at_bp] = j[idx[at_bp], 1]
        off = ~at_bp
        i = idx[off]
        uo = u[off]
        val = np.empty_like(uo)
        left = i == 0
        val[left] = j[0, 0] + self.tail_slopes[0] * (uo[left] - b[0])
        right = i == K
        val[right] = j[K - 1, 1] + self.tail_slopes[1] * (uo[right] - b[K - 1])
        mid = ~(left | right)
        im = i[mid] - 1
        val[mid] = j[im, 1] + s[im] * (uo[mid] - b[im])
        lo[off] = val
        hi[off] = val
        return lo, hi

    def minimal_selection(self, u):
        """Element of least modulus in theta(u) (vectorized)."""
        lo, hi = self.eval(u)
        out = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        return float(out[0]) if np.ndim(u) == 0 else out

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "breakpoints": self.breakpoints.tolist(),
            "slopes": self.slopes.tolist(),
            "jumps": self.jumps.tolist(),
            "tail_slopes": list(self.tail_slopes),
        }

    @staticmethod
    def from_dict(d):
        return MonotoneGraph(d["breakpoints"], d["jumps"], d["slopes"], tuple(d["tail_slopes"]))

    def scaled(self, c):
        """Graph of u -> c * theta(u) for c > 0 (values scaled, abscissae kept)."""
        if c <= 0:
            raise ValueError("coefficient must be positive")
        g = MonotoneGraph.__new__(MonotoneGraph)
        object.__setattr__(g, "breakpoints", self.breakpoints)
        object.__setattr__(g, "jumps", self.jumps * c)
        object.__setattr__(g, "slopes", self.slopes * c)
        object.__setattr__(g, "tail_slopes", (self.tail_slopes[0] * c, self.tail_slopes[1] * c))
        return g


# ---------------------------------------------------------------------------
# Resolvent and Yosida transform
# ---------------------------------------------------------------------------


def resolvent(graph, lam, w):
    """Solve w in u + lam*theta(u): closed form on each affine piece.

    Vectorized over w; nonexpansive in w for every lam > 0.
    """
    if lam <= 0:
        raise ValueError("resolvent needs lam > 0")
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    b, j, s = graph.breakpoints, graph.jumps, graph.slopes
    K = len(b)
    if K == 0:
        u = w / (1.0 + lam * graph.tail_slopes[0])
        return float(u[0]) if scalar else u
    # images of the breakpoints under u + lam*theta(u)
    w_lo = b + lam * j[:, 0]
    w_hi = b + lam * j[:, 1]
    edges = np.empty(2 * K)
    edges[0::2] = w_lo
    edges[1::2] = w_hi
    pos = np.searchsorted(edges, w, side="right")
    u = np.empty_like(w)

    on_jump = pos % 2 == 1
    u[on_jump] = b[(pos[on_jump] - 1) // 2]

    seg = ~on_jump
    i = pos[seg] // 2 - 1  # segment index; -1 = left tail, K-1 = right tail
    ws = w[seg]
    us = np.empty_like(ws)
    left = i < 0
    us[left] = b[0] + (ws[left] - w_lo[0]) / (1.0 + lam * graph.tail_slopes[0])
    right = i == K - 1
    us[right] = b[K - 1] + (ws[right] - w_hi[K - 1]) / (1.0 + lam * graph.tail_slopes[1])
    mid = ~(left | right)
    im = i[mid]
    us[mid] = b[im] + (ws[mid] - w_hi[im]) / (1.0 + lam * s[im])
    u[seg] = us
    return float(u[0]) if scalar else u


def yosida(graph, lam, w):
    """Yosida approximation theta_lam(w) = (w - resolvent(w)) / lam."""
    r = resolvent(graph, lam, w)
    return (np.asarray(w, dtype=float) - r) / lam if np.ndim(w) else (float(w) - r) / lam


# ---------------------------------------------------------------------------
# Graph inversion
# ---------------------------------------------------------------------------


def invert_graph(graph):
    """Swap the roles of u and v: jumps become plateaus and vice versa.

    Requires strictly positive tail slopes so the inverse is defined on all
    of R.  Zero-slope interior segments are allowed and become jumps.
    """
    tl, tr = graph.tail_slopes
    if tl <= 0 or tr <= 0:
        raise ValueError("inverse over all of R needs positive tail slopes")
    b, j, s = graph.breakpoints, graph.jumps, graph.slopes
    K = len(b)
    if K == 0:
        return MonotoneGraph.line(1.0 / tl)
    # graph polyline vertices with axes swapped: (value, abscissa)
    pts = []
    for i in range(K):
        pts.append((j[i, 0], b[i]))
        if j[i, 1] > j[i, 0]:
            pts.append((j[i, 1], b[i]))
    # group vertices sharing a value: each group is a breakpoint of the inverse
    new_b, new_j = [], []
    for v, u in pts:
        if new_b and v - new_b[-1] <= 1e-12 * max(1.0, abs(v)):
            new_j[-1][1] = u
        else:
            new_b.append(v)
            new_j.append([u, u])
    new_b = np.asarray(new_b)
    new_j = np.asarray(new_j, dtype=float)
    # slope between consecutive inverse breakpoints from the swapped polyline
    dv = np.diff(new_b)
    du = new_j[1:, 0] - new_j[:-1, 1]
    new_s = du / dv
    return _canonical(MonotoneGraph(new_b, new_j, new_s, (1.0 / tl, 1.0 / tr)))


def _canonical(graph):
    """Drop breakpoints that carry no jump and no slope change."""
    b, j, s = graph.breakpoints, graph.jumps, graph.slopes
    K = len(b)
    if K == 0:
        return graph
    slope_in = np.concatenate([[graph.tail_slopes[0]], s])
    slope_out = np.concatenate([s, [graph.tail_slopes[1]]])
    keep = (j[:, 1] > j[:, 0]) | (slope_in != slope_out)
    if keep.all():
        return graph
    if not keep.any():
        return MonotoneGraph.line(graph.tail_slopes[0])
    kept = np.flatnonzero(keep)
    nb = b[kept]
    nj = j[kept]
    ns = slope_out[kept[:-1]]
    return MonotoneGraph(nb, nj, ns, graph.tail_slopes)


# ---------------------------------------------------------------------------
# Graph composition
# ---------------------------------------------------------------------------


def _inner_preimage(inner, z):
    """Point u with z in inner(u) on a strictly increasing piece, else None.

    Values attained inside inner's jumps are the caller's business (the
    composed jump at that abscissa absorbs them already).
    """
    b, j, s = inner.breakpoints, inner.jumps, inner.slopes
    K = len(b)
    if z < j[0, 0]:
        tl = inner.tail_slopes[0]
        return b[0] + (z - j[0, 0]) / tl if tl > 0 else None
    if z > j[K - 1, 1]:
        tr = inner.tail_slopes[1]
        return b[K - 1] + (z - j[K - 1, 1]) / tr if tr > 0 else None
    for i in range(K - 1):
        if j[i, 1] < z < j[i + 1, 0]:
            return b[i] + (z - j[i, 1]) / s[i]
    return None


def compose_graphs(outer, inner):
    """Piecewise-affine graph of the composition u -> outer(inner(u)).

    Both arguments are maximal monotone; so is the composition, unless a
    genuine jump of ``outer`` sits exactly at the value of a flat piece of
    ``inner`` (the composition would be multivalued on a whole interval).
    That degenerate pairing is rejected.
    """
    if len(outer.breakpoints) == 0:
        c = outer.tail_slopes[0]
        return inner.scaled(c) if c > 0 else MonotoneGraph.line(0.0)
    ib, ij, islo = inner.breakpoints, inner.jumps, inner.slopes
    if len(ib) == 0:
        sig = inner.tail_slopes[0]
        if sig == 0:
            lo, hi = outer.value_interval(0.0)
            if hi > lo:
                raise ValueError("outer jump at the constant value of the inner graph")
            return MonotoneGraph.line(0.0)
        return MonotoneGraph(
            outer.breakpoints / sig,
            outer.jumps,
            outer.slopes * sig,
            (outer.tail_slopes[0] * sig, outer.tail_slopes[1] * sig),
        )

    cands = {}

    def add(u, lo, hi):
        for uu in list(cands):
            if abs(uu - u) <= 1e-12 * max(1.0, abs(uu)):
                a, c = cands[uu]
                cands[uu] = (min(a, lo), max(c, hi))
                return
        cands[u] = (lo, hi)

    # inner jumps: composed value interval is the filled image under outer
    for i in range(len(ib)):
        add(ib[i], outer.value_interval(ij[i, 0])[0], outer.value_interval(ij[i, 1])[1])

    # values where inner is flat (a genuine outer jump there is fatal)
    flat_vals = []
    if inner.tail_slopes[0] == 0:
        flat_vals.append(ij[0, 0])
    if inner.tail_slopes[1] == 0:
        flat_vals.append(ij[-1, 1])
    flat_vals += [ij[i, 1] for i in range(len(islo)) if islo[i] == 0]

    for k in range(len(outer.breakpoints)):
        z = outer.breakpoints[k]
        olo, ohi = outer.jumps[k]
        if ohi > olo and any(abs(z - fv) <= 1e-12 * max(1.0, abs(z)) for fv in flat_vals):
            raise ValueError("outer graph jumps at a plateau value of the inner graph")
        if any(ij[i, 0] <= z <= ij[i, 1] for i in range(len(ib))):
            continue  # absorbed by the composed jump at that inner breakpoint
        u_star = _inner_preimage(inner, z)
        if u_star is not None:
            add(u_star, olo, ohi)

    us = sorted(cands)
    b = np.asarray(us, dtype=float)
    jm = np.asarray([cands[u] for u in us], dtype=float)
    slopes = np.maximum((jm[1:, 0] - jm[:-1, 1]) / np.diff(b), 0.0) if len(b) > 1 else np.empty(0)

    def point_val(u):
        return outer.value_interval(inner.value_interval(u)[0])[0]

    tl = max((point_val(b[0] - 1.0) - point_val(b[0] - 2.0)) / 1.0, 0.0)
    tr = max((point_val(b[-1] + 2.0) - point_val(b[-1] + 1.0)) / 1.0, 0.0)
    return MonotoneGraph(b, jm, slopes, (tl, tr))


# ---------------------------------------------------------------------------
# Table: rows of samples on one uniform grid (every sampled curve lives here)
# ---------------------------------------------------------------------------

# rows per block of Table's slope scan (margin, Lipschitz bound, max_abs_slope)
_SLOPE_BLOCK_ROWS = 64


@dataclass
class Table:
    """Rows of samples on the uniform grid lo = u_0 < ... < u_{N-1} = hi.

    Evaluation is linear interpolation, extended linearly beyond the grid
    with the edge slopes.  ``rows`` selects one row per evaluation point and
    broadcasts against the points, so a one-row table takes ``rows = 0``
    and points of any shape.  Rows that are strictly increasing (margin
    > 0) are surjective and have the exact inverse of their interpolant.

    A point u sits at t = (u - lo)/du in slope cell floor(t), clipped to the
    grid; the interpolation and the slope range queries share that pass.  A
    bracket [lo, hi] covers the slope cells between the nodes floor(t_lo) and
    ceil(t_hi), at least one and clipped to the grid, so its max |slope| is
    nondecreasing under inclusion.  One bracket on every row
    (``max_abs_slope``) is a column window of the slope scan that gives
    ``margin`` and ``lipschitz``.  Per-row brackets (``llf_terms``) reduce
    interleaved bounds over a one-row table's cached |slope| row; a table of
    more rows gathers the samples at both ends of each bracket cell, takes
    the max of their |differences|, and keeps no slope table.
    """

    lo: float
    hi: float
    values: np.ndarray  # (rows, samples); a 1-D sample vector is one row

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.n_samples = self.values.shape[1]
        if self.n_samples < 2:
            raise ValueError("need at least two samples")
        self.du = (self.hi - self.lo) / (self.n_samples - 1)
        min_slope, max_abs_slope = self._slope_extremes(0, self.n_samples - 1)
        self.margin = float(min_slope)  # > 0 certifies strict increase
        self.lipschitz = float(max_abs_slope)

    def _slope_extremes(self, i0, i1):
        """(min slope, max |slope|) over slope cells i0 .. i1 - 1 of every row,
        a block of rows at a time, each block freed before the next is formed;
        dividing the exact extremes by du > 0 rounds to those of the slopes."""
        least, most = np.inf, 0.0
        for start in range(0, len(self.values), _SLOPE_BLOCK_ROWS):
            diff = np.diff(self.values[start:start + _SLOPE_BLOCK_ROWS, i0:i1 + 1], axis=1)
            least = np.minimum(least, diff.min())
            most = np.maximum(most, np.abs(diff, out=diff).max())
            del diff
        return least / self.du, most / self.du

    @functools.cached_property
    def _abs_slopes(self):
        # |slopes| of a one-row table plus one sentinel, so that every
        # bracket end is a valid np.maximum.reduceat index
        return np.append(np.abs(np.diff(self.values[0]) / self.du), 0.0)

    @staticmethod
    def from_function(fn, lo, hi, n=4097):
        """One-row table of ``fn`` sampled at n uniform points of [lo, hi]."""
        return Table(lo, hi, fn(np.linspace(lo, hi, n)))

    def _cells(self, u):
        """t = (u - lo)/du and its slope cell floor(t), clipped to the grid."""
        t = (np.asarray(u, dtype=float) - self.lo) / self.du
        # clipped by two ufuncs: np.clip and ndarray.clip go through a
        # Python wrapper that builds np.iinfo twice per call, and this runs
        # on every step
        i = np.minimum(np.maximum(np.floor(t).astype(int), 0), self.n_samples - 2)
        return t, i

    def _one_row(self, rows, i):
        """The row of a one-row table when ``rows`` does not widen a gather
        at i (a scalar, or the trailing shape of i); None otherwise.  A
        gather from one row costs about a third of one of (rows, i) pairs."""
        if len(self.values) == 1:
            shape = np.shape(rows)
            if shape == i.shape[i.ndim - len(shape):]:
                return self.values[0]
        return None

    def _interp(self, rows, t, i):
        row = self._one_row(rows, i)
        if row is None:
            left = self.values[rows, i]
            right = self.values[rows, i + 1]
        else:
            left = row[i]
            right = row[i + 1]
        return left + (t - i) * (right - left)

    def __call__(self, rows, u):
        return self._interp(rows, *self._cells(u))

    def inverse(self, rows, v):
        """u with self(rows, u) = v, for strictly increasing rows.

        The slope cell is searchsorted(row, v, 'right') - 1 clipped to the
        grid, found per row by a branch-free bisection (one gather per bit
        of the cell count).
        """
        if self.margin <= 0:
            raise ValueError("inverse needs strictly increasing samples")
        v = np.asarray(v, dtype=float)
        T = self.values
        last = self.n_samples - 2
        i = np.zeros(np.broadcast(rows, v).shape, dtype=int)
        for bit in reversed(range(last.bit_length())):
            step = np.minimum(i + (1 << bit), last)
            i = np.where(T[rows, step] <= v, step, i)
        lo, hi = T[rows, i], T[rows, i + 1]
        return self.lo + self.du * (i + (v - lo) / (hi - lo))

    def _bracket_max(self, rows, i0, t_hi):
        # slope cells i0 .. ceil(t_hi) - 1, at least one and within the grid;
        # t is monotone in u, so from the cell passes of the two ends this is
        # exactly the cover of [lo, hi]
        i1 = np.minimum(np.maximum(np.ceil(t_hi).astype(int), i0 + 1),
                        self.n_samples - 1)
        if len(self.values) == 1:
            # interleaved (start, end) pairs into the slope row for reduceat;
            # the odd segments, from one bracket's end to the next one's
            # start, are reduced and dropped
            shape = np.broadcast(rows, i0, i1).shape
            bounds = np.empty(shape + (2,), dtype=int)
            bounds[..., 0] = i0
            bounds[..., 1] = i1
            return np.maximum.reduceat(self._abs_slopes, bounds.ravel())[::2].reshape(shape)
        # the bracket cells alone, back to back, at flat sample indices
        # start .. start + width - 1 and one past each; dividing by du > 0
        # after the max rounds to the max of the rounded slopes
        base = np.asarray(rows) * self.n_samples
        start = base + i0
        width = (base + i1 - start).ravel()
        offsets = width.cumsum() - width
        flat = (start.ravel() - offsets).repeat(width)
        flat += np.arange(len(flat))
        samples = self.values.reshape(-1)
        diff = samples[flat]
        flat += 1
        diff -= samples[flat]
        np.abs(diff, out=diff)
        return np.maximum.reduceat(diff, offsets).reshape(start.shape) / self.du

    def max_abs_slope(self, lo, hi):
        """Exact max of |slope| over every row's slope cells between the
        nodes floor(t_lo) and ceil(t_hi) covering [lo, hi], where
        t = (u - self.lo)/du, at least one cell and clipped to the grid (the
        cover of ``_bracket_max``); nondecreasing under bracket inclusion."""
        _, i0 = self._cells(lo)
        t_hi, _ = self._cells(hi)
        i1 = min(max(math.ceil(t_hi), i0 + 1), self.n_samples - 1)
        return float(self._slope_extremes(i0, i1)[1])

    def llf_terms(self, rows, uL, uR):
        """(F(uL), F(uR), a) for the local Lax-Friedrichs flux: a is the
        max |slope| of its row over [min(uL, uR), max(uL, uR)], its nodes
        floor(t_min) and ceil(t_max) taken from the interpolation's cells.

        The two sides, broadcast against ``rows``, are stacked into one
        array, so that one cell pass and one interpolation serve both.
        A table of more than one row (one row per interface) gathers the
        bracket cells before the max, since the gaps between consecutive
        brackets span about a whole row; a one-row table scans interleaved,
        where each gap is a few cells."""
        pair = np.empty((2,) + np.broadcast(rows, uL, uR).shape)
        pair[0] = uL
        pair[1] = uR
        t, i = self._cells(pair)
        F = self._interp(rows, t, i)
        a = self._bracket_max(rows, np.minimum(i[0], i[1]), np.maximum(t[0], t[1]))
        return F[0], F[1], a


# ---------------------------------------------------------------------------
# Regularization: Yosida (lam = 1/sqrt(j)) + mollification (radius 1/j)
# + zero-normalization theta_j(x, 0) = 0.
# ---------------------------------------------------------------------------

# samples per theta_j table row, on [u_lo, u_hi]
THETA_SAMPLES = 1025


@dataclass
class ThetaRegularization:
    """Sampled theta_j(x, .) per point, one row per distinct coefficient row."""

    j: int
    u_lo: float
    u_hi: float
    table: np.ndarray       # (n_rows, n_samples) strictly increasing rows
    cell_rows: np.ndarray   # (n_points,) row index per point

    def __post_init__(self):
        self.sampled = Table(self.u_lo, self.u_hi, self.table)
        if self.sampled.margin <= 0:
            raise ValueError("regularized theta lost strict monotonicity; widen the sample grid")

    @property
    def lipschitz(self):
        return self.sampled.lipschitz

    @property
    def margin(self):
        return self.sampled.margin

    def v_of_u(self, u_cells):
        """theta_j(x_i, u_i) for a per-cell state vector (or S x n matrix),
        or for one scalar u across all cells."""
        return self.sampled(self.cell_rows, u_cells)

    def eta_cells(self, v_value):
        """Inverse: u with theta_j(x_i, u) = v, per cell for a per-cell v
        vector (or S x n matrix), or for one scalar v across all cells."""
        return self.sampled.inverse(self.cell_rows, v_value)


def regularize_theta(graph, coeffs, weights, j, u_lo, u_hi, outer=None):
    """Sampled theta_j of c*graph at each point: the Yosida transform with
    lam = 1/sqrt(j) rescaled by (1 + lam), mollification with radius 1/j
    in u, then zero-normalization so that theta_j(x, 0) = 0 exactly.

    Row p of ``coeffs`` holds the coefficient samples of point p; its table
    row is the ``weights``-weighted sum of their columns (one sample with
    weight 1 for a coefficient taken as it is, the x-kernel's samples and
    weights for one mollified in x).  Points with equal coefficient rows
    share one table row, in the order of first use.

    The Yosida transform shrinks slope-1 affine branches by 1/(1 + lam);
    the (1 + lam) factor undoes that, so the identity graph is reproduced
    exactly for every j while the lam -> 0 limit is unchanged.

    ``outer`` composes an extra monotone graph on top of each scaled graph
    before regularizing (used to absorb flux jumps: outer = U^{-1}).

    A column depends on its coefficient value alone, so one column is built
    per distinct value and held from the first to the last row that uses
    it; the tables equal those of one column per sample bit for bit.
    """
    if j < 1:
        raise ValueError("regularization index j must be >= 1")
    lam = 1.0 / math.sqrt(j)
    r = 1.0 / j
    nodes, kernel = mollifier_nodes()
    grid = np.linspace(u_lo, u_hi, THETA_SAMPLES)
    # evaluation points for the u-convolution, plus u = 0 for normalization
    pts = np.concatenate([grid, [0.0]])[:, None] - r * nodes[None, :]  # (n+1, 16)

    def u_mollified_yosida(g, scaled_lam):
        # in place on the resolvent's fresh array: one temporary per call, not
        # four, so the allocator does not shrink and regrow the heap each call
        yos = resolvent(g, scaled_lam, pts.ravel()).reshape(pts.shape)
        np.subtract(pts, yos, out=yos)
        yos /= scaled_lam
        yos *= kernel
        # row-wise kernel sum: rows with identical content reduce to
        # bit-identical values, so the appended u = 0 row normalizes the
        # 0 node of the table to exactly 0
        return yos.sum(axis=1)

    def column(c):
        if outer is None:
            # theta = c*g: resolvent at lam*c, Yosida scaled back by c
            return (1.0 + lam) * c * u_mollified_yosida(graph, lam * c)
        return (1.0 + lam) * u_mollified_yosida(
            compose_graphs(outer, graph.scaled(c)), lam)

    # distinct coefficient rows, renumbered in order of first use; then the
    # distinct values within them, each with the last row that needs it
    coeffs = np.asarray(coeffs, dtype=float)
    rows, first, point_row = np.unique(coeffs, axis=0, return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    values, keys = np.unique(rows[order], return_inverse=True)
    keys = keys.reshape(rows.shape)
    last_row = np.zeros(len(values), dtype=int)
    np.maximum.at(last_row, keys, np.arange(len(keys))[:, None])
    cols = {}
    table = np.empty((len(keys), THETA_SAMPLES))
    for i in range(len(keys)):
        acc = np.zeros(THETA_SAMPLES + 1)
        for p, k in enumerate(keys[i].tolist()):
            if k not in cols:
                cols[k] = column(values[k])
            acc += weights[p] * cols[k]
        table[i] = acc[:-1] - acc[-1]
        for k in keys[i][last_row[keys[i]] == i].tolist():
            cols.pop(k, None)
    return ThetaRegularization(j, u_lo, u_hi, table, rank[point_row.ravel()])


# ---------------------------------------------------------------------------
# Inverse convergence check (sampled sequence against a limit graph)
# ---------------------------------------------------------------------------


def check_inverse_convergence(seq, limit, compact):
    """Sup distance of seq_n^{-1} to the limit's inverse on a compact window.

    ``seq`` is a list of strictly increasing one-row Tables; ``limit`` a
    MonotoneGraph whose inverse must be continuous (no interior plateaus of
    the limit map turn into jumps inside the window).  Returns one
    sup-error per member, over 1000 uniform points of the window.
    """
    a, b = compact
    inv = invert_graph(limit)
    inside = (inv.breakpoints >= a) & (inv.breakpoints <= b)
    if np.any(inside & (inv.jumps[:, 1] > inv.jumps[:, 0])):
        raise ValueError("limit inverse is discontinuous on the window")
    ys = np.linspace(a, b, 1000)
    ref_lo, _ = inv.eval(ys)
    return [float(np.abs(fn.inverse(0, ys) - ref_lo).max()) for fn in seq]
