"""Entropy-inequality residuals and pair gaps for finite-volume runs.

Each inequality of the verification suite is evaluated as a midpoint
quadrature on the run's own space-time grid (slab-midpoint snapshots in
time, cell centers in space), against smooth product-bump test functions
with analytic derivatives.  The convention throughout: a residual is the
inequality's left side minus its right side, so nonnegative means the
inequality holds with margin.  Each psi is a product b_t(t) b_x(x), so its
quadrature against a field G is the bilinear form b_t^T G b_x: the fields
of one level are built once and meet the whole battery in one thin matmul
per field with the distinct b_x columns, contracted with the b_t columns.
Only one level's fields are live at a time, and each grid has one
``Quadrature``, which builds the columns (with the resolution check of
every psi) once per battery, not per level: a run's pair gaps meet the
columns of its entropy battery.

Scalar forms, for a state u with transformed companion v and k ranging
over the transformed variable (eta denotes the per-cell inverse map
u = eta(x, v)):

  SEMI_PLUS   (u - eta(x,k))^+ psi_t + chi_{v>k}(A(v)-A(k)) psi_x
              + chi_{v>k} f psi, plus the initial term
              int (u0 - eta(x,k))^+ psi(0,.)
  SEMI_MINUS  mirrored positive part with a minus sign on the f term and
              initial term int (eta(x,k) - u0)^+ psi(0,.)
  SGN / N2    |u - eta(x,k)| psi_t + sgn(v-k)(A(v)-A(k)) psi_x
              + sgn(v-k) f psi + int |u0 - eta(x,k)| psi(0,.)
              (one integrand: a battery evaluates each level once)
  N1          k in u-space: |u-k| psi_t + sgn(u-k)(Phi(x,u)-Phi(x,k)) psi_x
              + sgn(u-k)(f - div_x Phi(x,k)) psi + int |u0-k| psi(0,.)
              (smooth-in-x coefficients only)

Pair gaps for two runs sharing grid, times, and regularized operator:

  CONTRACTION |u1-u2| psi_t + sgn(v1-v2)(A(v1)-A(v2)) psi_x
              + sgn(v1-v2)(f1-f2) psi + int_{v1=v2} |f1-f2| psi
  COMPARISON  positive-part variant with diagonal (f1-f2)^+
"""

import csv
from dataclasses import dataclass, field as _field

import numpy as np

from .config import write_json
from .monotone import bump_profile

FORMS = ("SEMI_PLUS", "SEMI_MINUS", "SGN", "N1", "N2")
PAIR_KINDS = ("CONTRACTION", "COMPARISON")

# required resolution of a test-function support: cells / time slabs per radius
MIN_CELLS_PER_RADIUS = 8
MIN_SLABS_PER_RADIUS = 8


class ResolutionError(ValueError):
    """A test-function support too small for the grid or its macro blocks."""


# ---------------------------------------------------------------------------
# Test functions: products of the standard smooth bump
# ---------------------------------------------------------------------------


def bump_profile_dy(y):
    """Derivative of the bump profile: -2y/(1-y^2)^2 times the profile."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    q = 1.0 - yi * yi
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * yi / (q * q))
    return out


@dataclass
class TestFunction:
    """Nonnegative space-time bump psi(t,x) = b((t-tc)/rt) b((x-xc)/rx);
    the quadrature evaluates its two factors."""

    __test__ = False  # keep pytest from collecting the class by its name

    t_center: float
    x_center: float
    r_t: float
    r_x: float
    label: str = ""

    def __post_init__(self):
        if self.r_t <= 0 or self.r_x <= 0:
            raise ValueError("test function radii must be positive")
        if not self.label:
            self.label = "t%g_x%g_r%gx%g" % (self.t_center, self.x_center,
                                             self.r_t, self.r_x)


def battery_from_geometry(spec, t_fracs=(0.3, 0.5, 0.7),
                          x_fracs=(0.3, 0.5, 0.7),
                          radius_fracs=(0.15, 0.25)):
    """Deterministic battery from fractional centers and radii.

    Centers sit at the given fractions of the time horizon and space
    extent, radii at the given fractions of both extents; every fraction
    must keep the support strictly interior.
    """
    length = spec.x_hi - spec.x_lo
    out = []
    for tf in t_fracs:
        for xf in x_fracs:
            for rho in radius_fracs:
                if not (0.0 < tf - rho and tf + rho < 1.0
                        and 0.0 < xf - rho and xf + rho < 1.0):
                    raise ValueError(
                        "battery support leaves the interior: center fraction"
                        f" {tf:g}/{xf:g} with radius fraction {rho:g}")
                out.append(TestFunction(
                    tf * spec.T, spec.x_lo + xf * length,
                    rho * spec.T, rho * length,
                    label="t%.2g_x%.2g_r%.2g" % (tf, xf, rho)))
    return out


def k_samples(values, reg, n=33, space="v", pad=0.5):
    """Sample levels spanning the state range padded by 0.5, plus the
    critical values where violations concentrate: plateau endpoints of the
    flux parametrization and coefficient-scaled jump values of the
    nonlinearity (v-space), or the jump locations themselves (u-space)."""
    w = np.asarray(values, dtype=float)
    lo = float(w.min()) - pad
    hi = float(w.max()) + pad
    ks = list(np.linspace(lo, hi, n))
    graph = reg.spec.theta_graph
    if space == "v":
        if reg.par is not None:
            for a, b, _ in reg.par.plateaus:
                ks += [a, b]
        else:
            # a set, not np.unique, which imports numpy.ma; ks are sorted below
            for c in set(reg.cell_c.tolist()):
                for j_lo, j_hi in np.atleast_2d(graph.jumps.reshape(-1, 2)):
                    ks += [c * j_lo, c * j_hi]
    else:
        ks += list(graph.breakpoints)
    ks = sorted(k for k in set(ks) if lo <= k <= hi)
    return np.asarray(ks)


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


@dataclass
class EntropyReport:
    """Residuals per (form, k, psi) with summary minima and grid data."""

    grid_info: dict
    rows: list = _field(default_factory=list)

    def append(self, form, k, psi_label, residual):
        if not np.isfinite(residual):
            raise ValueError("non-finite residual for %s k=%g" % (form, k))
        self.rows.append((form, float(k), psi_label, float(residual)))

    def minima(self):
        out = {}
        for form, _, _, res in self.rows:
            out[form] = min(out.get(form, np.inf), res)
        return out

    def to_dict(self):
        return {
            "grid": dict(self.grid_info),
            "minima": self.minima(),
            "rows": [
                {"form": f, "k": k, "psi_id": p, "residual": r}
                for f, k, p, r in self.rows
            ],
        }

    def write_json(self, path):
        write_json(self.to_dict(), path)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["form", "k", "psi_id", "residual"])
            for form, k, psi_label, res in self.rows:
                writer.writerow([form, repr(k), psi_label, repr(res)])


# ---------------------------------------------------------------------------
# Residual evaluation
# ---------------------------------------------------------------------------


def _check_resolution(psi, dx, slab, n_cells, n_slabs, block=(1, 1)):
    """Each radius of psi must span the required cells / slabs and one block."""
    need_x = max(MIN_CELLS_PER_RADIUS * dx, block[1] * dx)
    need_t = max(MIN_SLABS_PER_RADIUS * slab, block[0] * slab)
    if psi.r_x >= need_x and psi.r_t >= need_t:
        return
    macro = tuple(block) != (1, 1)
    raise ResolutionError(
        "test function support unresolved%s: radius (%.3g, %.3g) needs "
        "at least %d cells and %d slabs per radius; use n_cells >= %d "
        "and snapshots >= %d%s"
        % (" on the macro-grid" if macro else "",
           psi.r_t, psi.r_x, MIN_CELLS_PER_RADIUS, MIN_SLABS_PER_RADIUS,
           int(np.ceil(MIN_CELLS_PER_RADIUS * n_cells * dx / psi.r_x)),
           int(np.ceil(MIN_SLABS_PER_RADIUS * n_slabs * slab / psi.r_t)),
           "; the largest macro shape that resolves it on this grid is "
           "[%d, %d]" % (psi.r_t // slab, psi.r_x // dx) if macro else ""))


def _columns(y, keys):
    """Bump columns b((y - c)/r) and their y-derivatives, (len(y), m), of
    the m distinct (c, r) among keys, and the column of every key."""
    index = {}
    cols = [index.setdefault(key, len(index)) for key in keys]
    c, r = np.array(list(index), dtype=float).reshape(-1, 2).T
    z = (np.asarray(y, dtype=float)[:, None] - c) / r
    return bump_profile(z), bump_profile_dy(z) / r, cols


class Quadrature:
    """Midpoint quadrature on one grid of psi-independent fields
    (G1, G2, G3[, W0]) against a battery, one value per psi = b_t(t) b_x(x):
    dx slab (b_t'^T G1 b_x + b_t^T G2 b_x' + b_t^T G3 b_x), plus
    dx b_t(0) W0 b_x when the initial term W0 is given.

    t are the slab midpoints, x the cell centers, and every radius must
    also span one ``block``.  The bump columns of the battery last given
    (time columns over t plus a last row at t = 0, space columns over x)
    are kept while every psi keeps its centers and radii; a new battery
    first passes the resolution check of every psi, and a rejected one
    keeps nothing.  Each field meets the battery's distinct b_x columns in
    one thin matmul.
    """

    def __init__(self, t, x, dx, slab, block=(1, 1)):
        self.t, self.x, self.dx, self.slab, self.block = t, x, dx, slab, block
        self.key = self.columns = None

    def __call__(self, fields, psis):
        key = [(p.t_center, p.x_center, p.r_t, p.r_x) for p in psis]
        if key != self.key:
            for psi in psis:
                _check_resolution(psi, self.dx, self.slab, len(self.x),
                                  len(self.t), self.block)
            self.columns = (
                _columns(np.append(self.t, 0.0),
                         [(p.t_center, p.r_t) for p in psis])
                + _columns(self.x, [(p.x_center, p.r_x) for p in psis]))
            self.key = key
        Bt, Bt1, it, Bx, Bx1, ix = self.columns
        G1, G2, G3 = fields[:3]
        H = Bt1[:-1].T @ (G1 @ Bx) + Bt[:-1].T @ (G2 @ Bx1 + G3 @ Bx)
        out = self.dx * self.slab * H[it, ix]
        if len(fields) == 4:
            out += self.dx * np.outer(Bt[-1], fields[3] @ Bx)[it, ix]
        return out


class ResidualEvaluator:
    """Midpoint-quadrature residuals of one run against many (form, k, psi).

    Builds the psi-independent integrand fields of one (form, k) level at a
    time and evaluates the whole battery against them in one quadrature.
    """

    def __init__(self, run, reg):
        self.run = run
        self.reg = reg
        self.spec = reg.spec
        self.t_mid = run.times[:-1]
        self.n_slabs = len(self.t_mid)
        self.slab = self.spec.T / self.n_slabs
        expected = (np.arange(self.n_slabs) + 0.5) * self.slab
        if not np.allclose(self.t_mid, expected, rtol=0, atol=1e-10 * max(self.spec.T, 1.0)):
            raise ValueError("snapshot times are not slab midpoints")
        self.U = run.U[:-1]
        self.V = run.V[:-1]
        self.x = run.grid.centers
        self.dx = run.grid.dx
        self.u0 = self.spec.initial_values(self.x, self.dx)
        self.f_cells = np.empty_like(self.U)
        # V[s] already holds theta_j(x, U[s]), which phi_{l,m} reads
        for s, t in enumerate(self.t_mid):
            self.f_cells[s] = reg.source_values(t, self.U[s], self.V[s])
        self.AV = reg.curve(0, self.V)
        self._eta_k = {}  # one inversion per level k, shared by its forms
        self.quadrature = Quadrature(self.t_mid, self.x, self.dx, self.slab)

    def terms(self, form, k):
        """psi-independent integrand fields (G1, G2, G3, W0) of one form:
        residual = int (G1 psi_t + G2 psi_x + G3 psi) + int W0 psi(0, .)."""
        theta = self.reg.theta
        curve = self.reg.curve
        if form == "N1":
            if not self.reg.spec.smooth_in_x:
                raise ValueError(
                    "the u-space Kruzkov form needs coefficients smooth in x "
                    "(div of the composed flux is measure-valued otherwise)")
            sg = np.sign(self.U - k)
            phi_k = curve(0, theta.v_of_u(k))
            div_phi_k = np.gradient(phi_k, self.dx)
            out = (np.abs(self.U - k),
                   sg * (self.AV - phi_k),
                   sg * (self.f_cells - div_phi_k),
                   np.abs(self.u0 - k))
        else:
            k = float(k)
            if k not in self._eta_k:
                self._eta_k[k] = theta.eta_cells(k)
            eta_k = self._eta_k[k]
            a_k = float(curve(0, k))
            if form == "SEMI_PLUS":
                chi = (self.V > k).astype(float)
                out = (np.maximum(self.U - eta_k, 0.0),
                       chi * (self.AV - a_k),
                       chi * self.f_cells,
                       np.maximum(self.u0 - eta_k, 0.0))
            elif form == "SEMI_MINUS":
                chi = (k > self.V).astype(float)
                out = (np.maximum(eta_k - self.U, 0.0),
                       chi * (a_k - self.AV),
                       -chi * self.f_cells,
                       np.maximum(eta_k - self.u0, 0.0))
            elif form in ("SGN", "N2"):
                sg = np.sign(self.V - k)
                out = (np.abs(self.U - eta_k),
                       sg * (self.AV - a_k),
                       sg * self.f_cells,
                       np.abs(self.u0 - eta_k))
            else:
                raise ValueError("unknown form %r" % (form,))
        return out

    def residual(self, form, k, psis):
        """Residuals of one (form, k) level, one per test function; the
        columns of the battery last given are kept for the next level."""
        return self.quadrature(self.terms(form, k), psis)

    def battery_report(self, forms, ks, psis):
        """Residuals in fixed lexicographic (form, k, psi) order; ``ks``
        maps each form to its levels (the u-space forms sample k
        differently)."""
        info = {
            "n_cells": self.run.grid.n_cells,
            "dx": self.dx,
            "snapshots": self.n_slabs,
            "T": self.spec.T,
        }
        report = EntropyReport(info)
        levels = {}  # SGN and N2 share one integrand
        for form in forms:
            for k in np.asarray(ks[form], dtype=float):
                key = ("SGN" if form == "N2" else form, k)
                if key not in levels:
                    levels[key] = self.residual(form, k, psis)
                for psi, res in zip(psis, levels[key]):
                    report.append(form, k, psi.label, res)
        return report


# ---------------------------------------------------------------------------
# Pair diagnostics
# ---------------------------------------------------------------------------


def l1_distance_curve(run1, run2):
    """Curve t -> ||u1(t) - u2(t)||_L1, trapezoid in x per snapshot."""
    _require_matching(run1, run2)
    diff = np.abs(run1.U - run2.U)
    trap = np.sum(diff, axis=1) - 0.5 * (diff[:, 0] + diff[:, -1])
    return run1.times, run1.grid.dx * trap


def _require_matching(run1, run2):
    g1, g2 = run1.grid, run2.grid
    if g1.n_cells != g2.n_cells or g1.x_lo != g2.x_lo or g1.x_hi != g2.x_hi:
        raise ValueError("runs live on different grids")
    if len(run1.times) != len(run2.times) or not np.array_equal(run1.times, run2.times):
        raise ValueError("runs have different snapshot times")


def _pair_fields(kind, ev1, ev2):
    """The psi-independent integrand fields (G1, G2, G3 + diagonal) of a
    two-solution inequality; the diagonal right-hand term lives on the
    exact floating-point equality set of the states."""
    U1, V1, f1, A1 = ev1.U, ev1.V, ev1.f_cells, ev1.AV
    U2, V2, f2, A2 = ev2.U, ev2.V, ev2.f_cells, ev2.AV
    if kind == "CONTRACTION":
        sg = np.sign(V1 - V2)
        return (np.abs(U1 - U2), sg * (A1 - A2),
                sg * (f1 - f2) + np.where(V1 == V2, np.abs(f1 - f2), 0.0))
    chi = (V1 > V2).astype(float)
    return (np.maximum(U1 - U2, 0.0), chi * (A1 - A2),
            chi * (f1 - f2) + np.where(V1 == V2, np.maximum(f1 - f2, 0.0), 0.0))


def pair_gap_battery(kind, ev1, ev2, psis):
    """Gaps (left minus right side) of a two-solution inequality, one per
    test function, from the residual evaluators of the two runs.

    Both runs must share the grid, the snapshot times, and the regularized
    operator (same flux curve and theta tables); only the sources and data
    may differ.
    """
    if kind not in PAIR_KINDS:
        raise ValueError("unknown pair kind %r" % (kind,))
    _require_matching(ev1.run, ev2.run)
    reg1, reg2 = ev1.reg, ev2.reg
    if not (np.array_equal(reg1.curve.values, reg2.curve.values)
            and np.array_equal(reg1.theta.table, reg2.theta.table)):
        raise ValueError("pair gaps need identical flux and theta tables")
    return ev1.quadrature(_pair_fields(kind, ev1, ev2), psis)
