"""Monotone finite-volume evolution of the regularized balance law.

A run evolves

    u_t + (A_j(theta_j(x, u)))_x = f_j(t, x, u) + phi_{l,m}(theta_j(x, u))

with local Lax-Friedrichs interface fluxes and unsplit explicit Euler in
time.  The composed flux F(u) = A_j(theta_j(x, u)) is single valued and
Lipschitz by construction: theta_j comes from the sampled regularization
tables and A_j from the mollified flux curve (in the plateau-filled
variable when the raw flux has jumps, in which case the jump set has been
absorbed into theta_j beforehand).

Everything is deterministic: fixed summation order, dt fixed by the
initial state, no randomness, so identical inputs give bit-identical
results.
"""

from dataclasses import dataclass, field as _field

import numpy as np

from .flux import build_parametrization, mollify_callable
from .monotone import Table, ThetaField, regularize_theta
from .problem import perturbation, perturbation_lipschitz

DEFAULT_CFL = 0.45

# The CFL number and the source cap dt * Lip(source) <= 1/2 together keep
# every cell-update coefficient of the explicit scheme nonnegative
# (1 - cfl - 1/2 > 0), which is what makes the scheme order preserving.
_SOURCE_CAP = 0.5


# ---------------------------------------------------------------------------
# Grid, state, and run record
# ---------------------------------------------------------------------------


@dataclass
class Grid1D:
    """Uniform cell-centered grid covering [x_lo, x_hi] exactly."""

    x_lo: float
    x_hi: float
    n_cells: int
    n_ghost: int = 2

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ValueError("domain must have positive length")
        if self.n_cells < 4:
            raise ValueError("need at least four cells")
        if self.n_ghost < 2:
            raise ValueError("need at least two ghost cells")
        self.dx = (self.x_hi - self.x_lo) / self.n_cells
        self.centers = self.x_lo + self.dx * (np.arange(self.n_cells) + 0.5)
        self.interfaces = self.x_lo + self.dx * np.arange(self.n_cells + 1)


@dataclass
class Field:
    """Cell averages u_i with companion transformed values v_i."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have matching shapes")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("field values must be finite")


class SolverError(RuntimeError):
    """Raised when the evolution produces a non-finite state."""

    def __init__(self, message, t=None, snapshot=None):
        super().__init__(message)
        self.t = t
        self.snapshot = snapshot


@dataclass
class RunResult:
    """Snapshots plus per-step diagnostics of one deterministic run.

    ``times`` holds the interior snapshot instants (slab midpoints used by
    the time quadrature downstream) followed by the exact final time T, and
    ``fields`` one Field per entry.
    """

    grid: Grid1D
    times: np.ndarray
    fields: list
    dt_history: np.ndarray
    cfl_history: np.ndarray
    mass_history: np.ndarray
    max_drift: float
    boundary_max: float
    warnings: list = _field(default_factory=list)

    @property
    def n_steps(self):
        return len(self.dt_history)

    @property
    def final_t(self):
        return float(self.times[-1])

    @property
    def final_u(self):
        return self.fields[-1].u

    @property
    def final_v(self):
        return self.fields[-1].v

    def snapshot_matrix(self):
        """(times, U, V) with one snapshot per row."""
        U = np.stack([f.u for f in self.fields])
        V = np.stack([f.v for f in self.fields])
        return self.times, U, V

    def metadata(self):
        """JSON-ready run record: dt history, CFL numbers, mass ledger."""
        return {
            "n_cells": self.grid.n_cells,
            "dx": self.grid.dx,
            "n_steps": self.n_steps,
            "snapshot_times": self.times.tolist(),
            "dt_history": self.dt_history.tolist(),
            "cfl_history": self.cfl_history.tolist(),
            "conservation": {
                "mass_initial": float(self.mass_history[0]),
                "mass_final": float(self.mass_history[-1]),
                "mass_history": self.mass_history.tolist(),
                "max_step_drift": self.max_drift,
            },
            "boundary_max": self.boundary_max,
            "warnings": list(self.warnings),
        }


def run_to_csv(result, path):
    """Write all snapshots as CSV rows with columns t, x, u, v."""
    times, U, V = result.snapshot_matrix()
    n = result.grid.n_cells
    t_col = np.repeat(times, n)
    x_col = np.tile(result.grid.centers, len(times))
    table = np.column_stack([t_col, x_col, U.ravel(), V.ravel()])
    np.savetxt(path, table, delimiter=",", header="t,x,u,v",
               comments="", fmt="%.17g")


# ---------------------------------------------------------------------------
# Regularized problem assembly
# ---------------------------------------------------------------------------


@dataclass
class RegularizedProblem:
    """Sampled tables realizing one (j, l, m) regularization on one grid.

    ``theta`` holds the per-cell tables of theta_j, ``theta_if`` the
    per-interface tables built from arithmetically averaged coefficients,
    and ``flux`` the composed interface flux F(u) on the shared u sample
    grid, one row per interface row of ``theta_if``.
    """

    spec: object
    grid: Grid1D
    field: ThetaField
    theta: object
    theta_if: object
    curve: Table
    par: object
    flux: Table

    def __post_init__(self):
        self.u_lo = self.flux.lo
        self.du = self.flux.du
        self.n_samples = self.flux.n_samples

    # -- recorded Lipschitz data ------------------------------------------------

    @property
    def lip_source(self):
        """Lipschitz bound in u of f_j + phi_{l,m} composed with theta_j."""
        chain = perturbation_lipschitz(self.spec.ell, self.spec.m) * self.theta.lipschitz
        return self.spec.source.lipschitz_u() + chain

    def max_speed(self, lo, hi):
        """Exact max of |dF/du| over [lo, hi] on the sampled representation."""
        rows = np.arange(len(self.flux.values))
        return float(self.flux.range_max_abs_slope(rows, lo, hi).max())

    # -- interface flux ----------------------------------------------------------

    def numerical_flux(self, uL, uR, rows=None):
        """Local Lax-Friedrichs flux at every interface: (flux values, max speed).

        The viscosity coefficient a is the exact maximum of |dF/du| over the
        slope cells covering [min(uL,uR), max(uL,uR)], which is nondecreasing
        under bracket inclusion; together with the CFL and source caps this
        makes the full cell update order preserving.
        """
        if rows is None:
            rows = self.theta_if.cell_rows
        a = self.flux.range_max_abs_slope(rows, np.minimum(uL, uR), np.maximum(uL, uR))
        return 0.5 * (self.flux(rows, uL) + self.flux(rows, uR)) - 0.5 * a * (uR - uL), a

    # -- state maps ---------------------------------------------------------------

    def v_of_u(self, u):
        return self.theta.v_of_u(u)

    def source_values(self, t, u, v):
        """Perturbed source f_j(t, x_i, u_i) + phi_{l,m}(v_i) per cell."""
        spec = self.spec
        f = spec.source.eval_mollified(spec.j, t, self.grid.centers, u)
        return f + perturbation(v, spec.ell, spec.m)


def regularized(spec, grid, n_samples=1025, n_flux_samples=4097):
    """Materialize the regularization tables of a problem on a grid.

    Builds the theta_j tables on [-sample_radius, sample_radius] for cells
    and (mean-coefficient) interfaces, absorbs flux jumps into theta via the
    plateau parametrization when present, mollifies the flux curve over the
    full range the theta tables can produce, and tabulates the composed
    interface flux.
    """
    rad = spec.sample_radius
    field = spec.make_theta_field(grid.centers)
    par = None
    outer = None
    if spec.flux.has_jumps:
        par = build_parametrization(spec.flux, spec.gap_slope)
        outer = par.inverse_graph()
    theta = regularize_theta(field, spec.j, -rad, rad,
                             n_samples=n_samples, outer=outer)

    # Interface coefficients: arithmetic mean of the two adjacent cell
    # coefficients, extended constantly into the ghost region.
    c = field.cell_c
    c_if = np.empty(grid.n_cells + 1)
    c_if[1:-1] = 0.5 * (c[:-1] + c[1:])
    c_if[0] = c[0]
    c_if[-1] = c[-1]
    field_if = ThetaField.explicit(grid.interfaces, field.graph, c_if)
    theta_if = regularize_theta(field_if, spec.j, -rad, rad,
                                n_samples=n_samples, outer=outer)

    v_lo = min(theta.table.min(), theta_if.table.min())
    v_hi = max(theta.table.max(), theta_if.table.max())
    pad = max(1e-9, 0.05 * (v_hi - v_lo))
    curve = mollify_callable(spec.flux.eval if par is None else par.calA,
                             spec.j, v_lo - pad, v_hi + pad,
                             n_samples=n_flux_samples)
    flux = Table(theta_if.u_lo, theta_if.u_hi, curve(0, theta_if.table))
    return RegularizedProblem(spec, grid, field, theta, theta_if, curve, par,
                              flux)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def cfl_dt(field, spec, grid, reg=None, cfl=DEFAULT_CFL):
    """Stable time step: cfl * dx / max wave speed over the field's range,
    capped so that dt * Lip(source in u) <= 1/2 and dt <= dx (the latter
    covers the zero-wave-speed pure-source regime)."""
    if reg is None:
        reg = regularized(spec, grid)
    lo = min(float(field.u.min()), 0.0)
    hi = max(float(field.u.max()), 0.0)
    speed = reg.max_speed(lo, hi)
    dt = grid.dx
    if speed > 0.0:
        dt = min(dt, cfl * grid.dx / speed)
    lip = reg.lip_source
    if lip > 0.0:
        dt = min(dt, _SOURCE_CAP / lip)
    return dt


def step(field, dt, t, reg):
    """One explicit Euler update; ghost cells hold the far-field constant 0.

    Returns (new field, info) where info records the boundary fluxes, the
    source cell sum, and the largest interface wave speed of the step.
    """
    grid = reg.grid
    n = grid.n_cells
    with np.errstate(over="ignore", invalid="ignore"):
        u_ext = np.zeros(n + 2 * grid.n_ghost)
        u_ext[grid.n_ghost:grid.n_ghost + n] = field.u
        uL = u_ext[grid.n_ghost - 1:grid.n_ghost + n]
        uR = u_ext[grid.n_ghost:grid.n_ghost + n + 1]
        flux, a = reg.numerical_flux(uL, uR)
        src = reg.source_values(t, field.u, field.v)
        u_new = field.u - (dt / grid.dx) * np.diff(flux) + dt * src
        v_new = reg.v_of_u(u_new) if np.all(np.isfinite(u_new)) else None
    if v_new is None or not np.all(np.isfinite(v_new)):
        raise SolverError(
            "non-finite state at t = %.6g (check CFL and source bounds)" % t,
            t=t, snapshot=field)
    info = {
        "flux_left": float(flux[0]),
        "flux_right": float(flux[-1]),
        "source_sum": float(np.sum(src)),
        "max_speed": float(a.max()),
    }
    return Field(u_new, v_new), info


def solve(spec, grid, snapshots=8, cfl=DEFAULT_CFL, dt_override=None, reg=None):
    """Evolve the regularized problem to time T.

    Snapshots are captured at the midpoints of ``snapshots`` equal time
    slabs (the quadrature instants used downstream) plus the exact final
    time.  The base dt is fixed once from the initial state, so identical
    inputs give bit-identical runs; pass ``dt_override`` to force a common
    step across paired runs.
    """
    if reg is None:
        reg = regularized(spec, grid)
    u = spec.initial_values(grid.centers, grid.dx)
    if np.max(np.abs(u)) > spec.sample_radius:
        raise ValueError("initial data exceeds sample_radius; tables too narrow")
    field = Field(u, reg.v_of_u(u))
    dt_base = dt_override if dt_override is not None else cfl_dt(field, spec, grid, reg=reg, cfl=cfl)

    slab = spec.T / snapshots
    targets = [(k + 0.5) * slab for k in range(snapshots)] + [spec.T]
    eps = 1e-12 * max(spec.T, 1.0)

    times, fields = [], []
    dt_hist, cfl_hist, mass_hist = [], [], []
    mass = float(np.sum(field.u)) * grid.dx
    mass_hist.append(mass)
    max_drift = 0.0
    boundary_max = float(np.max(np.abs(np.concatenate([field.u[:2], field.u[-2:]]))))

    t = 0.0
    for target in targets:
        while target - t > eps:
            dt = min(dt_base, target - t)
            field, info = step(field, dt, t, reg)
            t += dt
            new_mass = float(np.sum(field.u)) * grid.dx
            expected = mass - dt * (info["flux_right"] - info["flux_left"]) \
                + dt * grid.dx * info["source_sum"]
            max_drift = max(max_drift, abs(new_mass - expected))
            mass = new_mass
            dt_hist.append(dt)
            cfl_hist.append(dt * info["max_speed"] / grid.dx)
            mass_hist.append(mass)
            boundary_max = max(boundary_max, float(np.max(np.abs(
                np.concatenate([field.u[:2], field.u[-2:]])))))
        t = target
        times.append(t)
        fields.append(Field(field.u.copy(), field.v.copy()))

    warnings = []
    if boundary_max > 1e-12:
        warnings.append(
            "state reached the boundary cells (max %.3e); enlarge the domain"
            % boundary_max)
    return RunResult(grid, np.asarray(times), fields, np.asarray(dt_hist),
                     np.asarray(cfl_hist), np.asarray(mass_hist),
                     max_drift, boundary_max, warnings)
