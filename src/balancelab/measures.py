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
from .entropy import MIN_CELLS_PER_RADIUS, MIN_SLABS_PER_RADIUS
from .problem import perturbation


# ---------------------------------------------------------------------------
# Estimate container
# ---------------------------------------------------------------------------


@dataclass
class YoungMeasureEstimate:
    """Atomic Young measure on a macro-grid over a run ensemble's fine grid.

    ``atoms[bt][bx]`` holds ``(values, weights)`` of the block at time-block
    bt and space-block bx; index edges refer to fine slabs and cells.
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
        for bt in range(self.n_t_blocks):
            for bx in range(self.n_x_blocks):
                vals, wts = self.atoms[bt][bx]
                vals = np.asarray(vals, dtype=float)
                wts = np.asarray(wts, dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise ValueError("atoms must be finite")
                if np.any(wts < 0) or abs(float(wts.sum()) - 1.0) > 1e-12:
                    raise ValueError(
                        "weights of block (%d, %d) must be nonnegative and "
                        "sum to 1 within 1e-12" % (bt, bx))
                self.atoms[bt][bx] = (vals, wts)

    @property
    def n_t_blocks(self):
        return len(self.t_idx_edges) - 1

    @property
    def n_x_blocks(self):
        return len(self.x_idx_edges) - 1

    def block_times(self):
        """Midpoint time of each time block."""
        return 0.5 * (self.t_idx_edges[:-1] + self.t_idx_edges[1:]) * self.slab

    def max_atom_spread(self):
        """Largest per-block atom spread (max - min), a concentration gauge."""
        spread = 0.0
        for bt in range(self.n_t_blocks):
            for bx in range(self.n_x_blocks):
                vals, _ = self.atoms[bt][bx]
                spread = max(spread, float(vals.max() - vals.min()))
        return spread

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
    within merge_tol; atom value is the cluster mean, weight its share."""
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


def estimate_young_measure(ensemble, macro=(8, 8), merge_tol=1e-9, min_samples=16):
    """Pool the transformed states of an ensemble into atomic block measures.

    ``macro`` is (slabs per block, cells per block); every block must
    aggregate at least ``min_samples`` pooled samples across the ensemble.
    """
    if not ensemble:
        raise ValueError("ensemble must contain at least one run")
    g0 = ensemble[0].grid
    t0 = ensemble[0].times
    V_stack = []
    for run in ensemble:
        if (run.grid.n_cells != g0.n_cells or run.grid.x_lo != g0.x_lo
                or run.grid.x_hi != g0.x_hi):
            raise ValueError("ensemble runs live on different grids")
        if not np.array_equal(run.times, t0):
            raise ValueError("ensemble runs have different snapshot times")
        _, _, V = run.snapshot_matrix()
        V_stack.append(V[:-1])
    S, n = V_stack[0].shape
    mt, mx = macro
    t_edges = np.arange(0, S, mt)
    t_edges = np.append(t_edges, S)
    x_edges = np.arange(0, n, mx)
    x_edges = np.append(x_edges, n)
    atoms = []
    for bt in range(len(t_edges) - 1):
        row = []
        for bx in range(len(x_edges) - 1):
            pooled = np.concatenate([
                V[t_edges[bt]:t_edges[bt + 1], x_edges[bx]:x_edges[bx + 1]].ravel()
                for V in V_stack])
            if len(pooled) < min_samples:
                raise ValueError(
                    "block (%d, %d) pools %d samples, need >= %d"
                    % (bt, bx, len(pooled), min_samples))
            row.append(_merge_sorted(np.sort(pooled), merge_tol))
        atoms.append(row)
    slab = float(t0[-1]) / S
    return YoungMeasureEstimate(
        times=t0[:-1], centers=g0.centers, dx=g0.dx, slab=slab,
        t_idx_edges=t_edges, x_idx_edges=x_edges, atoms=atoms,
        provenance={"n_runs": len(ensemble), "n_slabs": S, "n_cells": n,
                    "macro": [int(mt), int(mx)], "merge_tol": merge_tol})


def dirac_estimate(run):
    """Degenerate estimate with one fine sample per block: the collapse
    construction under which every measure bracket reduces to the single
    run's own residual integrand."""
    times, _, V = run.snapshot_matrix()
    Vs = V[:-1]
    S, n = Vs.shape
    atoms = [[(np.array([Vs[s, i]]), np.array([1.0])) for i in range(n)]
             for s in range(S)]
    slab = float(times[-1]) / S
    return YoungMeasureEstimate(
        times=times[:-1], centers=run.grid.centers, dx=run.grid.dx, slab=slab,
        t_idx_edges=np.arange(S + 1), x_idx_edges=np.arange(n + 1),
        atoms=atoms, provenance={"n_runs": 1, "n_slabs": S, "n_cells": n,
                                 "macro": [1, 1]})


def default_support_radius(ym):
    """The support envelope convention: 1.05 times the largest atom size."""
    top = 0.0
    for row in ym.atoms:
        for vals, _ in row:
            top = max(top, float(np.abs(vals).max()))
    return 1.05 * top


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


class MeasureContext:
    """Precomputed per-block bracket ingredients of one estimate against one
    regularized problem: inverse states, mollified source factors, and flux
    values of every atom."""

    def __init__(self, ym, reg):
        if ym.centers.shape != reg.grid.centers.shape or \
                not np.allclose(ym.centers, reg.grid.centers, rtol=0, atol=1e-12):
            raise ValueError("estimate and problem live on different grids")
        self.ym = ym
        self.reg = reg
        self.spec = reg.spec
        spec = reg.spec
        S, n = len(ym.times), len(ym.centers)
        C = np.empty((S, n))
        for s, t in enumerate(ym.times):
            C[s] = spec.source.c_mollified(spec.j, t, ym.centers)
        self.C = C
        theta = reg.theta
        self.blocks = []
        for bt in range(ym.n_t_blocks):
            ts, te = ym.t_idx_edges[bt], ym.t_idx_edges[bt + 1]
            for bx in range(ym.n_x_blocks):
                xs, xe = ym.x_idx_edges[bx], ym.x_idx_edges[bx + 1]
                vals, wts = ym.atoms[bt][bx]
                eta = theta.sampled.inverse(theta.cell_rows[xs:xe], vals[:, None])
                self.blocks.append({
                    "bt": bt, "bx": bx, "ts": ts, "te": te, "xs": xs, "xe": xe,
                    "vals": vals, "wts": wts, "eta": eta,
                    "g_eta": spec.source.g_mollified(spec.j, eta),
                    "phi": perturbation(vals, spec.ell, spec.m),
                    "A": reg.curve(0, vals),
                })
        self._eta_mu_cache = {}
        self._psi_cache = {}

    def _check_resolution(self, psi):
        ym = self.ym
        block_w = float(np.max(np.diff(ym.x_idx_edges))) * ym.dx
        block_t = float(np.max(np.diff(ym.t_idx_edges))) * ym.slab
        need_x = max(MIN_CELLS_PER_RADIUS * ym.dx, block_w)
        need_t = max(MIN_SLABS_PER_RADIUS * ym.slab, block_t)
        if psi.r_x < need_x or psi.r_t < need_t:
            raise ValueError(
                "test function support unresolved on the macro-grid: needs "
                "radii >= (%.3g, %.3g), got (%.3g, %.3g)"
                % (need_t, need_x, psi.r_t, psi.r_x))

    def _psi_fields(self, psi):
        key = id(psi)
        if key not in self._psi_cache:
            self._psi_cache[key] = (
                psi.value(self.ym.times, self.ym.centers),
                psi.dt_matrix(self.ym.times, self.ym.centers),
                psi.dx_matrix(self.ym.times, self.ym.centers),
            )
        return self._psi_cache[key]

    def _eta_mu(self, mu):
        """eta(x_i, mu) over all cells, one inversion per level."""
        key = float(mu)
        if key not in self._eta_mu_cache:
            self._eta_mu_cache[key] = self.reg.theta.eta_cells(key)
        return self._eta_mu_cache[key]

    def residual(self, sign, mu, psi, gamma=0.0):
        """Quadrature value of (EQ+) / negated (EQ-) at level mu."""
        if sign not in ("PLUS", "MINUS"):
            raise ValueError("sign must be PLUS or MINUS")
        self._check_resolution(psi)
        P, Pt, Px = self._psi_fields(psi)
        A_mu = float(self.reg.curve(0, mu))
        eta_mu_cells = self._eta_mu(mu)
        total = 0.0
        for blk in self.blocks:
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
            sl = np.s_[blk["ts"]:blk["te"], blk["xs"]:blk["xe"]]
            Pb, Ptb, Pxb = P[sl], Pt[sl], Px[sl]
            CP = self.C[sl] * Pb
            total += float(B1 @ Ptb.sum(axis=0)) + B2 * float(Pxb.sum()) \
                + float(B3g @ CP.sum(axis=0)) + B3p * float(Pb.sum())
        return self.ym.dx * self.ym.slab * total


def mu_is_atom(ym, mu, tol=1e-9):
    """Whether mu coincides with an atom anywhere (the exceptional level
    set: flagged in reports, never excluded)."""
    for row in ym.atoms:
        for vals, _ in row:
            if np.any(np.abs(vals - mu) <= tol):
                return True
    return False


def mv_residual_table(ym, reg, mus, psis, signs=("PLUS", "MINUS"), gamma=0.0):
    """Rows (sign, mu, psi_id, residual, mu_is_atom) in fixed order."""
    ctx = MeasureContext(ym, reg)
    rows = []
    for sign in signs:
        for mu in np.asarray(mus, dtype=float):
            flag = mu_is_atom(ym, mu)
            for psi in psis:
                rows.append((sign, float(mu), psi.label,
                             ctx.residual(sign, mu, psi, gamma=gamma), flag))
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


def averaged_contraction_gap(ym1, ym2, psi, reg):
    """Quadrature value of the averaged contraction inequality for two
    estimates sharing grid and macro layout (positive = holds with margin).

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
    ctx1._check_resolution(psi)
    P, Pt, Px = ctx1._psi_fields(psi)
    total = 0.0
    for blk1, blk2 in zip(ctx1.blocks, ctx2.blocks):
        W = np.outer(blk1["wts"], blk2["wts"])
        sg = np.sign(blk1["vals"][:, None] - blk2["vals"][None, :])
        B1 = np.einsum("ab,abc->c", W,
                       np.abs(blk1["eta"][:, None, :] - blk2["eta"][None, :, :]))
        B2 = float(np.sum(W * sg * (blk1["A"][:, None] - blk2["A"][None, :])))
        B3g = np.einsum("ab,abc->c", W * sg,
                        blk1["g_eta"][:, None, :] - blk2["g_eta"][None, :, :])
        B3p = float(np.sum(W * sg * (blk1["phi"][:, None] - blk2["phi"][None, :])))
        sl = np.s_[blk1["ts"]:blk1["te"], blk1["xs"]:blk1["xe"]]
        Pb, Ptb, Pxb = P[sl], Pt[sl], Px[sl]
        CP = ctx1.C[sl] * Pb
        total += float(B1 @ Ptb.sum(axis=0)) + B2 * float(Pxb.sum()) \
            + float(B3g @ CP.sum(axis=0)) + B3p * float(Pb.sum())
    return ym1.dx * ym1.slab * total


# ---------------------------------------------------------------------------
# Support and initial-trace checks
# ---------------------------------------------------------------------------


def support_and_trace_check(ym, r_field, u0_values, reg, window=None):
    """Support envelope and initial-trace report of one estimate.

    ``r_field`` is a scalar or (t blocks, x blocks) array bound; every atom
    must satisfy |atom| <= R of its block.  The trace curve evaluates
    int_K <|eta(x, lam) - u0(x)|, nu> dx per time block.
    """
    r_arr = np.asarray(r_field, dtype=float)
    if r_arr.ndim == 0:
        r_arr = np.full((ym.n_t_blocks, ym.n_x_blocks), float(r_arr))
    u0 = np.asarray(u0_values, dtype=float)
    if window is None:
        in_window = np.ones(len(ym.centers), dtype=bool)
    else:
        in_window = (ym.centers >= window[0]) & (ym.centers <= window[1])
    violations = []
    trace = np.zeros(ym.n_t_blocks)
    for bt in range(ym.n_t_blocks):
        for bx in range(ym.n_x_blocks):
            vals, wts = ym.atoms[bt][bx]
            over = np.abs(vals) > r_arr[bt, bx]
            for v in vals[over]:
                violations.append({"t_block": bt, "x_block": bx, "atom": float(v)})
            xs, xe = ym.x_idx_edges[bx], ym.x_idx_edges[bx + 1]
            cells = np.arange(xs, xe)[in_window[xs:xe]]
            if len(cells) == 0:
                continue
            eta = reg.theta.sampled.inverse(reg.theta.cell_rows[cells], vals[:, None])
            trace[bt] += ym.dx * float(wts @ np.sum(np.abs(eta - u0[cells]), axis=1))
    return {
        "support_ok": not violations,
        "violations": violations,
        "trace_times": ym.block_times().tolist(),
        "trace_values": trace.tolist(),
    }
