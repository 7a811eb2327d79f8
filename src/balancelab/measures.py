"""Empirical Young measures and measure-valued entropy diagnostics.

An estimate pools the transformed states v of an ensemble of runs over
macro-cells (blocks of fine cells times blocks of time slabs) into atomic
probability measures: equal weight per pooled sample, values merged at a
fixed resolution.  All brackets <g, nu> are then exact atom-weighted sums,
and the measure-valued inequalities are evaluated with the same
slab-midpoint/cell-midpoint quadrature as the single-run residuals:

  PLUS   <(eta(x,lam)-eta(x,mu))^+, nu> psi_t
         + <chi_{lam>mu}(A(lam)-A(mu)), nu> psi_x
         + <chi_{lam>mu} f(t,x,lam), nu> psi              expected >= 0
  MINUS  the mirrored one-sided form, reported negated so that positive
         values mean the inequality holds with margin
  averaged contraction
         <|eta(x,lam)-eta(x,mu)|, nu x sigma> psi_t
         + <sgn(lam-mu)(A(lam)-A(mu)), nu x sigma> psi_x
         + <sgn(lam-mu)(f(t,x,lam)-f(t,x,mu)), nu x sigma> psi
                                                          expected >= 0

f(t,x,lam) is the effective source of the regularized problem evaluated
through the state map, f_j(t,x,eta(x,lam)) + phi_{l,m}(lam).  The source
bracket optionally uses the one-sided affine smoothing chi^gamma of the
indicator (a cross-check mode; for dissipative sources the smoothed
residual dominates the sharp one and decreases as gamma -> 0).
"""

import csv
from dataclasses import dataclass, field as _field

import numpy as np

from .config import write_json
from .entropy import Quadrature, ResolutionError, _require_matching
from .problem import perturbation


# ---------------------------------------------------------------------------
# Estimate container
# ---------------------------------------------------------------------------


@dataclass
class YoungMeasureEstimate:
    """Atomic Young measure on a macro-grid over a run ensemble's fine grid.

    ``atoms[bt][bx]`` holds ``(values, weights)`` of the block at time-block
    bt and space-block bx, values ascending; index edges refer to fine
    slabs and cells.  The flat ``values`` and ``weights`` hold every
    block's atoms end to end in (bt, bx) order, block b at
    ``offsets[b]:offsets[b + 1]``; the pairs of ``atoms`` are views of them.
    """

    times: np.ndarray        # fine slab midpoints
    centers: np.ndarray      # fine cell centers
    dx: float
    slab: float
    t_idx_edges: np.ndarray  # (Mt+1,) fine-slab indices
    x_idx_edges: np.ndarray  # (Mx+1,) fine-cell indices
    atoms: list
    provenance: dict = _field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.centers = np.asarray(self.centers, dtype=float)
        self.t_idx_edges = np.asarray(self.t_idx_edges, dtype=int)
        self.x_idx_edges = np.asarray(self.x_idx_edges, dtype=int)
        pairs = []
        for bt, bx in np.ndindex(self.n_t_blocks, self.n_x_blocks):
            vals, wts = (np.asarray(a, dtype=float) for a in self.atoms[bt][bx])
            if not np.all(np.isfinite(vals)):
                raise ValueError("atoms must be finite")
            if np.any(wts < 0) or abs(float(wts.sum()) - 1.0) > 1e-12:
                raise ValueError(
                    "weights of block (%d, %d) must be nonnegative and "
                    "sum to 1 within 1e-12" % (bt, bx))
            if np.any(np.diff(vals) < 0):
                raise ValueError("values of block (%d, %d) must be ascending"
                                 % (bt, bx))
            pairs.append((vals, wts))
        self.offsets = np.cumsum([0] + [len(v) for v, _ in pairs])
        self.values = np.concatenate([v for v, _ in pairs])
        self.weights = np.concatenate([w for _, w in pairs])
        views = [(self.values[a:b], self.weights[a:b])
                 for a, b in zip(self.offsets[:-1], self.offsets[1:])]
        self.atoms = [views[i:i + self.n_x_blocks]
                      for i in range(0, len(views), self.n_x_blocks)]

    @property
    def n_t_blocks(self):
        return len(self.t_idx_edges) - 1

    @property
    def n_x_blocks(self):
        return len(self.x_idx_edges) - 1

    def block_times(self):
        """Midpoint time of each time block."""
        return 0.5 * (self.t_idx_edges[:-1] + self.t_idx_edges[1:]) * self.slab

    def to_dict(self):
        return {
            "dx": self.dx,
            "slab": self.slab,
            "t_idx_edges": self.t_idx_edges.tolist(),
            "x_idx_edges": self.x_idx_edges.tolist(),
            "provenance": dict(self.provenance),
            "blocks": [
                [
                    {"values": v.tolist(), "weights": w.tolist()}
                    for (v, w) in row
                ]
                for row in self.atoms
            ],
        }

    def write_json(self, path):
        write_json(self.to_dict(), path)


def _merge_sorted(vals, merge_tol):
    """Cluster sorted samples whose gap to the running cluster start stays
    within merge_tol; atom value is the cluster mean, weight its share.

    A gap above merge_tol to the previous sample always starts a cluster,
    and a stretch between two such gaps that spans at most merge_tol is one
    cluster; only wider stretches of small gaps are walked sample by sample.
    """
    n = len(vals)
    starts = np.flatnonzero(np.concatenate(([True], np.diff(vals) > merge_tol)))
    ends = np.append(starts[1:], n)
    wide = vals[ends - 1] - vals[starts] > merge_tol
    extra = []
    for s, e in zip(starts[wide], ends[wide]):
        c = s
        for i in range(s + 1, e):
            if vals[i] - vals[c] > merge_tol:
                c = i
                extra.append(i)
    if extra:
        starts = np.sort(np.concatenate((starts, extra)))
    counts = np.diff(np.append(starts, n))
    out_v = vals[starts]
    for a in np.flatnonzero(counts > 1):
        out_v[a] = vals[starts[a]:starts[a] + counts[a]].mean()
    return out_v, counts / n


def estimate_young_measure(ensemble, macro=(8, 8), merge_tol=1e-9, min_samples=16):
    """Pool the transformed states of an ensemble into atomic block measures.

    ``macro`` is (slabs per block, cells per block); every block must
    aggregate at least ``min_samples`` pooled samples across the ensemble,
    or a ``ResolutionError`` names the first that does not.
    """
    if not ensemble:
        raise ValueError("ensemble must contain at least one run")
    g0 = ensemble[0].grid
    t0 = ensemble[0].times
    V_stack = []
    for run in ensemble:
        _require_matching(ensemble[0], run)
        V_stack.append(run.V[:-1])
    S, n = V_stack[0].shape
    mt, mx = macro
    if mt < 1 or mx < 1:
        raise ValueError("macro entries must be >= 1, got [%s, %s]" % (mt, mx))
    t_edges = np.append(np.arange(0, S, mt), S)
    x_edges = np.append(np.arange(0, n, mx), n)
    atoms = []
    for bt in range(len(t_edges) - 1):
        row = []
        for bx in range(len(x_edges) - 1):
            pooled = np.concatenate([
                V[t_edges[bt]:t_edges[bt + 1], x_edges[bx]:x_edges[bx + 1]].ravel()
                for V in V_stack])
            if len(pooled) < min_samples:
                raise ResolutionError(
                    "block (%d, %d) pools %d samples, need >= %d: with %d "
                    "runs a macro block needs slabs x cells >= %d"
                    % (bt, bx, len(pooled), min_samples, len(ensemble),
                       -(-min_samples // len(ensemble))))
            row.append(_merge_sorted(np.sort(pooled), merge_tol))
        atoms.append(row)
    slab = float(t0[-1]) / S
    return YoungMeasureEstimate(
        times=t0[:-1], centers=g0.centers, dx=g0.dx, slab=slab,
        t_idx_edges=t_edges, x_idx_edges=x_edges, atoms=atoms,
        provenance={"n_runs": len(ensemble), "n_slabs": S, "n_cells": n,
                    "macro": [int(mt), int(mx)], "merge_tol": merge_tol})


def default_support_radius(ym):
    """The support envelope convention: 1.05 times the largest atom size."""
    return 1.05 * float(np.abs(ym.values).max())


# ---------------------------------------------------------------------------
# Indicator smoothing
# ---------------------------------------------------------------------------


def chi_gamma_above(lam, mu, gamma):
    """One-sided affine smoothing of chi_{lam > mu}: the ramp sits on the
    side where a dissipative source makes the smoothed product dominate."""
    lam = np.asarray(lam, dtype=float)
    if gamma == 0.0:
        return (lam > mu).astype(float)
    if mu >= 0.0:
        return np.clip((lam - mu) / gamma, 0.0, 1.0)
    return np.clip((lam - (mu - gamma)) / gamma, 0.0, 1.0)


def chi_gamma_below(lam, mu, gamma):
    """Mirrored smoothing of chi_{lam < mu}."""
    lam = np.asarray(lam, dtype=float)
    if gamma == 0.0:
        return (lam < mu).astype(float)
    if mu > 0.0:
        return np.clip(((mu + gamma) - lam) / gamma, 0.0, 1.0)
    return np.clip((mu - lam) / gamma, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Bracket evaluation context
# ---------------------------------------------------------------------------


def _scans(x, counts):
    """Sums of each unit of the rows of x below and above every cut.

    x is (q, N), made of units of the given lengths laid end to end.  Cut k
    of unit s (k = 0 .. counts[s]) sits at slot i + s of the returned
    (q, N + units) arrays ``below`` and ``above``, where i is the index in
    x of the unit's entry k: ``below`` holds the sum of the unit's first k
    entries, added from the bottom, and ``above`` that of the others,
    added from the top.  Each side is one cumulative sum per unit.
    """
    below = np.zeros(x.shape[:-1] + (x.shape[-1] + len(counts),))
    above = np.zeros_like(below)
    start = 0
    for s, n in enumerate(counts.tolist()):
        seg, slot = x[:, start:start + n], start + s
        np.cumsum(seg, axis=-1, out=below[:, slot + 1:slot + n + 1])
        above[:, slot:slot + n] = np.cumsum(seg[:, ::-1], axis=-1)[:, ::-1]
        start += n
    return below, above


class MeasureContext:
    """Bracket ingredients of one estimate against one regularized problem.

    Brackets live on units, one per block and distinct theta row of its x
    block (one per block where the coefficient is constant), in (t block,
    x block, row) order; every cell of a unit shares eta(x, .), and each
    atom is inverted once per unit.  Every t block has the same ``n_pairs``
    (x block, row) pairs, so unit u is pair u % n_pairs of t block
    u // n_pairs; ``pair_of_cell`` is the pair of every cell, ``unit_row``
    the row of every unit and ``cell_unit`` the unit of every (t block,
    cell).  The flat per-unit-atom arrays (``unit``, ``vals``, ``w``,
    ``A``, ``phi``, ``eta``, ``g_eta``) list each unit's atoms, its
    block's, in ascending order.  eta(x, .) is nondecreasing, so
    (eta(x,lam) - eta(x,mu))^+ is chi_{lam>mu} (eta(x,lam) - eta(x,mu)),
    and each sharp bracket at a level is a sum over the atoms above (PLUS)
    or below (MINUS) it.  ``above`` and ``below`` hold the sums of w, w A,
    w phi, w eta and w g_eta of every unit past each cut, one cumulative
    sum per unit and side (``_scans``): cut k of unit u sits at slot
    i + u, i the flat index of the unit's atom k.  A level finds its cut
    in each unit by binary search and gathers them there.  A smoothed
    indicator's ramp atoms are added one by one.  The brackets per unit
    expand to fields on the fine (slab, cell) grid for the shared
    quadrature.
    """

    def __init__(self, ym, reg):
        if ym.centers.shape != reg.grid.centers.shape or \
                not np.allclose(ym.centers, reg.grid.centers, rtol=0, atol=1e-12):
            raise ValueError("estimate and problem live on different grids")
        self.ym = ym
        self.reg = reg
        self.spec = spec = reg.spec
        self.C = np.stack([spec.source.c_mollified(spec.j, t, ym.centers)
                           for t in ym.times])
        self.blocks = list(np.ndindex(ym.n_t_blocks, ym.n_x_blocks))  # (bt, bx)
        self.block_shape = (int(np.max(np.diff(ym.t_idx_edges))),
                            int(np.max(np.diff(ym.x_idx_edges))))
        # time block of every fine slab; a unit is a t block's (x block, row)
        # pair, the pairs of one t block found from the row of every cell
        self.t_block = np.repeat(np.arange(ym.n_t_blocks), np.diff(ym.t_idx_edges))
        n_rows = len(reg.theta.table)
        x_block = np.repeat(np.arange(ym.n_x_blocks), np.diff(ym.x_idx_edges))
        pairs, pair_of_cell = np.unique(x_block * n_rows + reg.theta.cell_rows,
                                        return_inverse=True)
        pair_block, pair_row = np.divmod(pairs, n_rows)
        block = (np.arange(ym.n_t_blocks)[:, None] * ym.n_x_blocks
                 + pair_block).ravel()
        self.unit_row = np.tile(pair_row, ym.n_t_blocks)
        self.units = np.arange(len(block))
        self.n_pairs, self.pair_of_cell = len(pairs), pair_of_cell
        self.cell_unit = np.arange(ym.n_t_blocks)[:, None] * self.n_pairs + pair_of_cell
        counts = np.diff(ym.offsets)[block]
        self.unit = np.repeat(self.units, counts)
        # each unit atom's index into the estimate's flat atoms
        atom = np.arange(len(self.unit)) + (ym.offsets[block] - np.cumsum(counts)
                                            + counts)[self.unit]
        self.vals = ym.values[atom]
        # numpy orders complex numbers lexicographically, so these keys sort
        # by (unit, value) and one binary search finds a cut in every unit
        self.keys = self.unit + 1j * self.vals
        self.w = ym.weights[atom]
        self.A = reg.curve(0, self.vals)
        self.phi = perturbation(self.vals, spec.ell, spec.m)
        self.eta = reg.theta.sampled.inverse(self.unit_row[self.unit], self.vals)
        # chunks bound the temporaries of the source's kernel nodes
        self.g_eta = np.concatenate([
            spec.source.g_mollified(spec.j, self.eta[i:i + 4096])
            for i in range(0, len(self.eta), 4096)])
        self.below, self.above = _scans(
            self.w * np.stack([np.ones_like(self.w), self.A, self.phi,
                               self.eta, self.g_eta]),
            np.bincount(self.unit, minlength=len(self.units)))
        self._eta_mu = {}
        self.quadrature = Quadrature(ym.times, ym.centers, ym.dx, ym.slab,
                                     self.block_shape)

    def cut(self, lam, side, units=None):
        """Slot in ``below``/``above`` of the cut of each unit's atoms (or
        of the given units') at lam: past the atoms < lam (side "left") or
        <= lam ("right")."""
        units = self.units if units is None else units
        return np.searchsorted(self.keys, units + 1j * np.asarray(lam), side) + units

    def fields(self, B1, B2, B3g, B3p):
        """Fine-grid fields (G1, G2, G3 = B3g C + B3p) of brackets given per
        unit."""
        def expand(B):
            return B[self.cell_unit][self.t_block]
        return expand(B1), expand(B2), expand(B3g) * self.C + expand(B3p)

    def _smoothed(self, plus, mu, gamma):
        """Per-unit (<chi^gamma w, g_eta>, <chi^gamma w, phi>) of the
        smoothed indicator above (plus) or below mu: the ramp of chi^gamma
        lies within gamma of mu, so the atoms within gamma plus a few
        rounding units of mu are added one by one, and those further out on
        the indicator's side come from the sums past the cut."""
        pad = 4.0 * np.spacing(abs(mu) + gamma)
        lo = self.cut(mu - gamma - pad, "left")
        hi = self.cut(mu + gamma + pad, "right")
        sums = self.above[:, hi] if plus else self.below[:, lo]
        n = hi - lo
        near = np.repeat(self.units, n)
        i = np.arange(n.sum()) + np.repeat(lo - self.units - np.cumsum(n) + n, n)
        chi_w = self.w[i] * (chi_gamma_above if plus else chi_gamma_below)(
            self.vals[i], mu, gamma)
        return (sums[4] + np.bincount(near, chi_w * self.g_eta[i], len(n)),
                sums[2] + np.bincount(near, chi_w * self.phi[i], len(n)))

    def terms(self, sign, mu, gamma=0.0):
        """psi-independent fields (G1, G2, G3) of (EQ+) / negated (EQ-) at
        level mu."""
        if sign not in ("PLUS", "MINUS"):
            raise ValueError("sign must be PLUS or MINUS")
        mu, gamma = float(mu), float(gamma)
        if mu not in self._eta_mu:  # one inversion per (level, unit)
            self._eta_mu[mu] = self.reg.theta.sampled.inverse(self.unit_row, mu)
        eta_mu = self._eta_mu[mu]
        A_mu = float(self.reg.curve(0, mu))
        plus = sign == "PLUS"
        if plus:
            w, wA, wphi, weta, wg = self.above[:, self.cut(mu, "right")]
            B1, B2 = weta - eta_mu * w, wA - A_mu * w
        else:
            w, wA, wphi, weta, wg = self.below[:, self.cut(mu, "left")]
            B1, B2 = eta_mu * w - weta, A_mu * w - wA
        if gamma:
            wg, wphi = self._smoothed(plus, mu, gamma)
        side = 1.0 if plus else -1.0
        return self.fields(B1, B2, side * wg, side * wphi)

    def residual(self, sign, mu, psis, gamma=0.0):
        """Quadrature values of (EQ+) / negated (EQ-) at level mu, one per
        test function; the columns of the battery last given are kept for
        the next level."""
        return self.quadrature(self.terms(sign, mu, gamma), psis)


def mu_is_atom(atoms, mu):
    """Whether mu lies within 1e-9 of one of the atoms, a flat array of
    every block's atom values (the exceptional level set: flagged in
    reports, never excluded)."""
    return bool(np.any(np.abs(atoms - mu) <= 1e-9))


def mv_residual_table(ctx, mus, psis, gamma=0.0):
    """Rows (sign, mu, psi_id, residual, mu_is_atom) in fixed order."""
    rows = []
    for sign in ("PLUS", "MINUS"):
        for mu in np.asarray(mus, dtype=float):
            flag = mu_is_atom(ctx.ym.values, mu)
            for psi, res in zip(psis, ctx.residual(sign, mu, psis, gamma)):
                rows.append((sign, float(mu), psi.label, float(res), flag))
    return rows


def write_mv_table_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sign", "mu", "psi_id", "residual", "mu_is_atom"])
        for sign, mu, psi_label, res, flag in rows:
            writer.writerow([sign, repr(mu), psi_label, repr(res), int(flag)])


# ---------------------------------------------------------------------------
# Averaged contraction
# ---------------------------------------------------------------------------


def averaged_contraction_gap(ym1, ym2, psis, reg):
    """Quadrature values of the averaged contraction inequality for two
    estimates sharing grid and macro layout, one per test function
    (positive = holds with margin).

    Product brackets are exact double sums over atom pairs; the sign factor
    vanishes on the exact diagonal, matching the zero of the subdifferential
    selection at the origin.
    """
    if not (np.array_equal(ym1.t_idx_edges, ym2.t_idx_edges)
            and np.array_equal(ym1.x_idx_edges, ym2.x_idx_edges)
            and np.array_equal(ym1.times, ym2.times)
            and np.array_equal(ym1.centers, ym2.centers)):
        raise ValueError("estimates have mismatched grids or macro layouts")
    ctx1 = MeasureContext(ym1, reg)
    ctx2 = MeasureContext(ym2, reg)

    # Every product bracket <sgn(lam - sig) (g(lam) - g(sig)), nu x sigma>
    # is linear in g: it is sum r1 g(lam) over the atoms of nu minus sum
    # r2 g(sig) over those of sigma, where r1 is w(lam) times the sigma-mass
    # below lam minus that above it, and r2 the mirror image; eta(x, .) is
    # nondecreasing, so the same sign also gives |eta(x, lam) - eta(x, sig)|
    # = sgn(lam - sig) (eta(x, lam) - eta(x, sig)).
    def mass(ctx, other, side):
        # ctx's weight below (side "left") or above ("right") each atom of
        # other, in the atom's unit
        return (ctx.below if side == "left" else ctx.above)[
            0, ctx.cut(other.vals, side, other.unit)]

    r1 = ctx1.w * (mass(ctx2, ctx1, "left") - mass(ctx2, ctx1, "right"))
    r2 = ctx2.w * (mass(ctx1, ctx2, "right") - mass(ctx1, ctx2, "left"))
    n_units = len(ctx1.units)

    def bracket(name):
        return (np.bincount(ctx1.unit, r1 * getattr(ctx1, name), n_units)
                - np.bincount(ctx2.unit, r2 * getattr(ctx2, name), n_units))

    return ctx1.quadrature(ctx1.fields(bracket("eta"), bracket("A"),
                                       bracket("g_eta"), bracket("phi")), psis)


# ---------------------------------------------------------------------------
# Support and initial-trace checks
# ---------------------------------------------------------------------------


def support_and_trace_check(ctx, r_field, u0_values):
    """Support envelope and initial-trace report of the estimate of a
    ``MeasureContext``.

    ``r_field`` is a scalar or (t blocks, x blocks) array bound; every atom
    must satisfy |atom| <= R of its block.  The trace curve evaluates
    int_K <|eta(x, lam) - u0(x)|, nu> dx per time block.
    """
    ym = ctx.ym
    r_arr = np.asarray(r_field, dtype=float)
    if r_arr.ndim == 0:
        r_arr = np.full((ym.n_t_blocks, ym.n_x_blocks), float(r_arr))
    u0 = np.asarray(u0_values, dtype=float)
    block = np.repeat(np.arange(len(ym.offsets) - 1), np.diff(ym.offsets))
    over = np.flatnonzero(np.abs(ym.values) > r_arr.ravel()[block])
    violations = [{"t_block": int(b // ym.n_x_blocks),
                   "x_block": int(b % ym.n_x_blocks), "atom": float(v)}
                  for b, v in zip(block[over], ym.values[over])]
    # |eta(x, lam) - u0(x)| summed over the cells of each unit atom's unit:
    # pass j adds the j-th cell of every (x block, row) pair that has one
    t_block, pair = np.divmod(ctx.unit, ctx.n_pairs)
    cells = np.argsort(ctx.pair_of_cell, kind="stable")
    n_cells = np.bincount(ctx.pair_of_cell, minlength=ctx.n_pairs)
    first = (np.cumsum(n_cells) - n_cells)[pair]
    dist = np.zeros(len(pair))
    for j in range(int(n_cells.max())):
        has = np.flatnonzero(n_cells[pair] > j)
        dist[has] += np.abs(ctx.eta[has] - u0[cells[first[has] + j]])
    trace = ym.dx * np.bincount(t_block, ctx.w * dist, ym.n_t_blocks)
    return {
        "support_ok": not violations,
        "violations": violations,
        "trace_times": ym.block_times().tolist(),
        "trace_values": trace.tolist(),
    }
