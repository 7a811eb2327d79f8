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
from .entropy import _require_matching, quadrature
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
        _require_matching(ensemble[0], run)
        _, _, V = run.snapshot_matrix()
        V_stack.append(V[:-1])
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


def _padded_atoms(ym):
    """(values, weights) as (t block, x block, atom) arrays, 0-padded."""
    vals = [v for row in ym.atoms for v, _ in row]
    counts = np.array([len(v) for v in vals])
    index = (np.repeat(np.arange(len(counts)), counts),
             np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts))
    out = np.zeros((2, len(counts), counts.max()))
    out[0][index] = np.concatenate(vals)
    out[1][index] = np.concatenate([w for row in ym.atoms for _, w in row])
    return out.reshape(2, ym.n_t_blocks, ym.n_x_blocks, -1)


class MeasureContext:
    """Bracket ingredients of one estimate against one regularized problem.

    Atoms are padded into (time block, x block, atom) arrays of values,
    weights, flux values and perturbations, and (time block, cell, atom)
    arrays of inverse states and mollified source factors; the brackets of
    every block are then one array expression, expanded to fields on the
    fine (slab, cell) grid for the shared quadrature.
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
        # block index of every fine slab / cell
        self.t_block = np.repeat(np.arange(ym.n_t_blocks), np.diff(ym.t_idx_edges))
        self.x_block = np.repeat(np.arange(ym.n_x_blocks), np.diff(ym.x_idx_edges))
        self.vals, self.wts = _padded_atoms(ym)
        self.A = reg.curve(0, self.vals)
        self.phi = perturbation(self.vals, spec.ell, spec.m)
        # one atom slot at a time bounds the temporaries of the inverse and
        # of the source's kernel nodes
        etas = [reg.theta.sampled.inverse(reg.theta.cell_rows, v)
                for v in np.moveaxis(self.vals[:, self.x_block], -1, 0)]
        self.eta = np.stack(etas, axis=-1)
        self.g_eta = np.stack([spec.source.g_mollified(spec.j, eta)
                               for eta in etas], axis=-1)
        self._eta_mu = {}
        self._terms = (None, None)

    def fields(self, B1, B2, B3g, B3p):
        """Fine-grid fields (G1, G2, G3 = B3g C + B3p) of brackets given per
        (time block, cell) (B1, B3g) or per (time block, x block) (B2, B3p)."""
        tb, xb = self.t_block, self.x_block
        return (B1[tb], B2[:, xb][tb], B3g[tb] * self.C + B3p[:, xb][tb])

    def terms(self, sign, mu, gamma=0.0):
        """psi-independent fields (G1, G2, G3) of (EQ+) / negated (EQ-) at
        level mu; only the last level's fields are kept."""
        if sign not in ("PLUS", "MINUS"):
            raise ValueError("sign must be PLUS or MINUS")
        key = (sign, float(mu), float(gamma))
        if self._terms[0] == key:
            return self._terms[1]
        A_mu = float(self.reg.curve(0, mu))
        if key[1] not in self._eta_mu:  # one inversion per level
            self._eta_mu[key[1]] = self.reg.theta.eta_cells(key[1])
        eta_mu = self._eta_mu[key[1]][:, None]
        plus = sign == "PLUS"
        side = 1.0 if plus else -1.0
        chi_flux = self.wts * ((self.vals > mu) if plus else (self.vals < mu))
        chi_src = self.wts * (chi_gamma_above if plus else chi_gamma_below)(
            self.vals, mu, gamma)
        gap = side * (self.eta - eta_mu)
        np.maximum(gap, 0.0, out=gap)
        xb = self.x_block
        out = self.fields(
            np.einsum("tca,tca->tc", self.wts[:, xb], gap),
            np.sum(chi_flux * side * (self.A - A_mu), axis=-1),
            side * np.einsum("tca,tca->tc", chi_src[:, xb], self.g_eta),
            side * np.sum(chi_src * self.phi, axis=-1))
        self._terms = (key, out)
        return out

    def residual(self, sign, mu, psis, gamma=0.0):
        """Quadrature values of (EQ+) / negated (EQ-) at level mu, one per
        test function."""
        ym = self.ym
        return quadrature(self.terms(sign, mu, gamma), psis, ym.times,
                          ym.centers, ym.dx, ym.slab, block=self.block_shape)


def mu_is_atom(atoms, mu):
    """Whether mu lies within 1e-9 of one of the atoms, a flat array of
    every block's atom values (the exceptional level set: flagged in
    reports, never excluded)."""
    return bool(np.any(np.abs(atoms - mu) <= 1e-9))


def mv_residual_table(ym, reg, mus, psis, gamma=0.0):
    """Rows (sign, mu, psi_id, residual, mu_is_atom) in fixed order."""
    ctx = MeasureContext(ym, reg)
    atoms = np.concatenate([vals for row in ym.atoms for vals, _ in row])
    rows = []
    for sign in ("PLUS", "MINUS"):
        for mu in np.asarray(mus, dtype=float):
            flag = mu_is_atom(atoms, mu)
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

    # Every product bracket <sgn(lam - mu) (g(lam) - g(mu)), nu x sigma> is
    # linear in g, so the atoms of nu carry the weights r1 and those of
    # sigma the weights r2; eta(x, .) is increasing, so the same sign also
    # gives |eta(x, lam) - eta(x, mu)| = sgn(lam - mu) (eta(x, lam) - eta(x, mu)).
    WS = ctx1.wts[..., :, None] * ctx2.wts[..., None, :] \
        * np.sign(ctx1.vals[..., :, None] - ctx2.vals[..., None, :])
    r1, r2 = WS.sum(axis=-1), WS.sum(axis=-2)
    xb = ctx1.x_block

    def bracket(name, cells=slice(None)):
        return (np.sum(r1[:, cells] * getattr(ctx1, name), axis=-1)
                - np.sum(r2[:, cells] * getattr(ctx2, name), axis=-1))

    fields = ctx1.fields(bracket("eta", xb), bracket("A"),
                         bracket("g_eta", xb), bracket("phi"))
    return quadrature(fields, psis, ym1.times, ym1.centers, ym1.dx, ym1.slab,
                      block=ctx1.block_shape)


# ---------------------------------------------------------------------------
# Support and initial-trace checks
# ---------------------------------------------------------------------------


def support_and_trace_check(ym, r_field, u0_values, reg):
    """Support envelope and initial-trace report of one estimate.

    ``r_field`` is a scalar or (t blocks, x blocks) array bound; every atom
    must satisfy |atom| <= R of its block.  The trace curve evaluates
    int_K <|eta(x, lam) - u0(x)|, nu> dx per time block.
    """
    r_arr = np.asarray(r_field, dtype=float)
    if r_arr.ndim == 0:
        r_arr = np.full((ym.n_t_blocks, ym.n_x_blocks), float(r_arr))
    u0 = np.asarray(u0_values, dtype=float)
    violations = []
    trace = np.zeros(ym.n_t_blocks)
    for bt in range(ym.n_t_blocks):
        for bx in range(ym.n_x_blocks):
            vals, wts = ym.atoms[bt][bx]
            over = np.abs(vals) > r_arr[bt, bx]
            for v in vals[over]:
                violations.append({"t_block": bt, "x_block": bx, "atom": float(v)})
            cells = slice(ym.x_idx_edges[bx], ym.x_idx_edges[bx + 1])
            eta = reg.theta.sampled.inverse(reg.theta.cell_rows[cells], vals[:, None])
            trace[bt] += ym.dx * float(wts @ np.sum(np.abs(eta - u0[cells]), axis=1))
    return {
        "support_ok": not violations,
        "violations": violations,
        "trace_times": ym.block_times().tolist(),
        "trace_values": trace.tolist(),
    }
