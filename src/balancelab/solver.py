"""Monotone finite-volume evolution of the regularized balance law.

A run evolves

    u_t + (A_j(theta_j(x, u)))_x = f_j(t, x, u) + phi_{l,m}(theta_j(x, u))

with local Lax-Friedrichs interface fluxes and unsplit explicit Euler in
time.  The composed flux F(u) = A_j(theta_j(x, u)) is single valued and
Lipschitz by construction: theta_j comes from the sampled regularization
tables and A_j from the mollified flux curve (in the plateau-filled
variable when the raw flux has jumps, in which case the jump set has been
absorbed into theta_j beforehand).

The state is one plain array, the cell averages u, which ``step`` maps to
the next.  The transformed values v = theta_j(x_i, u_i) are formed where
they are read: per step by phi_{l,m} when l or m is finite, and at each
snapshot, where ``solve`` fills one row of the run's ``U`` and ``V``
arrays, which every downstream check reads directly.

Everything is deterministic: fixed summation order, dt fixed by the
initial state, no randomness, so identical inputs give bit-identical
results.
"""

import math
from dataclasses import dataclass, field as _field

import numpy as np

from .flux import build_parametrization, mollify_callable
from .monotone import Table, regularize_theta
from .problem import perturbation, perturbation_lipschitz

DEFAULT_CFL = 0.45

# dt * Lip(source in u) <= 1/2 caps the source's share of one Euler step.
# What holds is that the two-point flux is monotone in each argument.  The
# full cell update is not order preserving: that would need the flux to be
# Lipschitz in the states as well, and the LLF viscosity jumps where a state
# crosses a table node, so no CFL number makes every cell-update
# coefficient nonnegative (ROADMAP item 6).
_SOURCE_CAP = 0.5

# interface-table rows per block when the composed flux table is evaluated;
# few enough that a block's temporaries stay below the peak of the steps
_FLUX_BLOCK_ROWS = 8


# ---------------------------------------------------------------------------
# Grid and run record
# ---------------------------------------------------------------------------


@dataclass
class Grid1D:
    """Uniform cell-centered grid covering [x_lo, x_hi] exactly."""

    x_lo: float
    x_hi: float
    n_cells: int

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ValueError("domain must have positive length")
        if self.n_cells < 4:
            raise ValueError("need at least four cells")
        self.dx = (self.x_hi - self.x_lo) / self.n_cells
        self.centers = self.x_lo + self.dx * (np.arange(self.n_cells) + 0.5)
        self.interfaces = self.x_lo + self.dx * np.arange(self.n_cells + 1)


class SolverError(RuntimeError):
    """Raised when the evolution produces a non-finite state."""


_NON_FINITE = "non-finite state at t = %.6g (check CFL and source bounds)"


@dataclass
class RunResult:
    """Snapshots plus per-step diagnostics of one deterministic run.

    ``times`` holds the interior snapshot instants (slab midpoints used by
    the time quadrature downstream) followed by the exact final time T.
    ``U`` and ``V`` are (len(times), n_cells) arrays: row k holds the cell
    averages u and their transformed values v = theta_j(x, u) at times[k].
    """

    grid: Grid1D
    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
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
        return self.U[-1]

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
    n = result.grid.n_cells
    t_col = np.repeat(result.times, n)
    x_col = np.tile(result.grid.centers, len(result.times))
    table = np.column_stack([t_col, x_col, result.U.ravel(), result.V.ravel()])
    np.savetxt(path, table, delimiter=",", header="t,x,u,v",
               comments="", fmt="%.17g")


# ---------------------------------------------------------------------------
# Regularized problem assembly
# ---------------------------------------------------------------------------


@dataclass
class RegularizedProblem:
    """Sampled tables realizing one (j, l, m) regularization on one grid.

    ``cell_c`` holds the coefficient c(x_i) of each cell, ``theta`` the
    per-cell tables of theta_j, and ``flux`` the composed interface flux
    F(u) on the shared u sample grid, one row per distinct interface
    coefficient (the arithmetic mean of the two adjacent cells'), composed
    in the memory of the interface theta table; ``if_rows`` maps each
    interface to its row of ``flux``.

    ``flux`` is the step table: ``numerical_flux`` and ``cfl_dt`` read it,
    and nothing else does.  ``harness.solve_points`` sets it to None
    once its runs have stepped, so a problem it returns carries the cell
    tables, the flux curve and the table geometry (``u_lo``, ``du``,
    ``n_samples``) but cannot step.
    """

    spec: object
    grid: Grid1D
    cell_c: np.ndarray
    theta: object
    if_rows: np.ndarray
    curve: Table
    par: object
    flux: Table | None

    def __post_init__(self):
        # copied once: a problem whose flux has been released keeps them,
        # but dataclasses.replace cannot rebuild it
        self.u_lo = self.flux.lo
        self.du = self.flux.du
        self.n_samples = self.flux.n_samples

    # -- recorded Lipschitz data ------------------------------------------------

    @property
    def lip_source(self):
        """Lipschitz bound in u of f_j + phi_{l,m} composed with theta_j."""
        chain = perturbation_lipschitz(self.spec.ell, self.spec.m) * self.theta.lipschitz
        return self.spec.source.lipschitz_u() + chain

    # -- interface flux ----------------------------------------------------------

    def numerical_flux(self, uL, uR):
        """Local Lax-Friedrichs flux at every interface: (flux values, max speed).

        The viscosity coefficient a is the exact maximum of |dF/du| over the
        slope cells between the nodes floor(t_min) and ceil(t_max) covering
        [min(uL,uR), max(uL,uR)], where t = (u - u_lo)/du; the nodes come
        from the same cell pass as the interpolation of F(uL) and F(uR).
        It is nondecreasing under bracket inclusion, which makes this
        two-point flux monotone in each argument (nondecreasing in uL,
        nonincreasing in uR).  The full cell update is not order
        preserving: a is piecewise constant in the states and jumps where
        one crosses a table node (ROADMAP item 6).
        """
        FL, FR, a = self.flux.llf_terms(self.if_rows, uL, uR)
        return 0.5 * (FL + FR) - 0.5 * a * (uR - uL), a

    # -- source -------------------------------------------------------------------

    def source_values(self, t, u, v=None):
        """Perturbed source f_j(t, x_i, u_i) + phi_{l,m}(theta_j(x_i, u_i))
        per cell, or the scalar 0.0 when neither term is present (the zero
        source with l = m = inf).  ``v``, when given, is theta_j(x_i, u_i)
        already formed; otherwise theta_j is formed only when phi_{l,m} is
        on (l or m finite)."""
        spec = self.spec
        f = 0.0
        if spec.source.id != "zero":
            f = spec.source.eval_mollified(spec.j, t, self.grid.centers, u)
        if math.isfinite(spec.ell) or math.isfinite(spec.m):
            if v is None:
                v = self.theta.v_of_u(u)
            return f + perturbation(v, spec.ell, spec.m)
        return f


def regularized(spec, grid):
    """Materialize the regularization tables of a problem on a grid.

    Builds the theta_j tables on [-sample_radius, sample_radius] for cells
    and (mean-coefficient) interfaces, absorbs flux jumps into theta via the
    plateau parametrization when present, mollifies the flux curve over the
    full range the theta tables can produce, and tabulates the composed
    interface flux over the interface theta table, which it replaces.
    """
    rad = spec.sample_radius
    par = None
    outer = None
    if spec.flux.has_jumps:
        par = build_parametrization(spec.flux, spec.gap_slope)
        outer = par.inverse
    coeffs, weights = spec.coefficient_samples(grid.centers)
    theta = regularize_theta(spec.theta_graph, coeffs, weights, spec.j, -rad,
                             rad, outer=outer)

    # Interface coefficients: arithmetic mean of the two adjacent cell
    # coefficients, extended constantly into the ghost region.
    c = spec.coefficient(grid.centers)
    c_if = np.empty(grid.n_cells + 1)
    c_if[1:-1] = 0.5 * (c[:-1] + c[1:])
    c_if[0] = c[0]
    c_if[-1] = c[-1]
    iface = regularize_theta(spec.theta_graph, c_if[:, None], [1.0], spec.j,
                             -rad, rad, outer=outer)

    v_lo = min(theta.table.min(), iface.table.min())
    v_hi = max(theta.table.max(), iface.table.max())
    pad = max(1e-9, 0.05 * (v_hi - v_lo))
    curve = mollify_callable(spec.flux.eval if par is None else par.calA,
                             spec.j, v_lo - pad, v_hi + pad)
    # F = A_j(theta_j) a block of rows at a time, written over the interface
    # theta rows it is read from: per-cell tables are (n_cells + 1) x
    # THETA_SAMPLES, and interpolating a whole one at once, or into a table
    # of its own, made the temporaries that set the peak memory of a run
    flux_values = iface.table
    for start in range(0, len(flux_values), _FLUX_BLOCK_ROWS):
        block = slice(start, start + _FLUX_BLOCK_ROWS)
        flux_values[block] = curve(0, flux_values[block])
    flux = Table(iface.u_lo, iface.u_hi, flux_values)
    # of the interface theta table only the row map outlives the build
    return RegularizedProblem(spec, grid, c, theta, iface.cell_rows, curve,
                              par, flux)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def cfl_dt(u, reg):
    """Stable time step: DEFAULT_CFL * dx / max |dF/du| over the step
    table's slope cells covering [min(u, 0), max(u, 0)] on every row
    (``Table.max_abs_slope``), capped so that dt * Lip(source in u) <= 1/2
    and dt <= dx (the latter covers the zero-wave-speed pure-source regime)."""
    lo = min(float(u.min()), 0.0)
    hi = max(float(u.max()), 0.0)
    speed = reg.flux.max_abs_slope(lo, hi)
    dx = reg.grid.dx
    dt = dx
    if speed > 0.0:
        dt = min(dt, DEFAULT_CFL * dx / speed)
    lip = reg.lip_source
    if lip > 0.0:
        dt = min(dt, _SOURCE_CAP / lip)
    return dt


def step(u, dt, t, reg):
    """One explicit Euler update of the cell averages u; ghost cells hold
    the far-field constant 0.

    Returns (u_new, flux, src, a): the new state, the interface fluxes, the
    source per cell (the scalar 0.0 when there is none, see
    ``source_values``) and the interface wave speeds of the step, which the
    mass ledger and the CFL history read.  Raises SolverError when u_new is
    not finite.  A direct call runs under numpy's own error state, so an
    overflow warns first; ``solve`` steps with those warnings off.
    """
    grid = reg.grid
    n = grid.n_cells
    u_ext = np.zeros(n + 2)  # one ghost cell per side
    u_ext[1:-1] = u
    flux, a = reg.numerical_flux(u_ext[:-1], u_ext[1:])
    src = reg.source_values(t, u)
    u_new = u - (dt / grid.dx) * (flux[1:] - flux[:-1]) + dt * src
    if not np.isfinite(u_new).all():
        raise SolverError(_NON_FINITE % t)
    return u_new, flux, src, a


def _boundary_abs(u):
    """max |u| over the two cells at each end of the grid."""
    return float(max(abs(u[0]), abs(u[1]), abs(u[-2]), abs(u[-1])))


def checked_initial_values(spec, grid):
    """The initial cell averages, checked before any table reads them."""
    u = spec.initial_values(grid.centers, grid.dx)
    if not np.all(np.isfinite(u)):
        raise ValueError("field values must be finite")
    if np.max(np.abs(u)) > spec.sample_radius:
        raise ValueError("initial data exceeds sample_radius; tables too narrow")
    return u


def solve(spec, grid, snapshots=8, dt_override=None, reg=None):
    """Evolve the regularized problem to time T.

    Snapshots are captured at the midpoints of ``snapshots`` equal time
    slabs (the quadrature instants used downstream) plus the exact final
    time.  The base dt is fixed once from the initial state, so identical
    inputs give bit-identical runs; pass ``dt_override`` to force a common
    step across paired runs.
    """
    u = checked_initial_values(spec, grid)
    if reg is None:
        reg = regularized(spec, grid)
    dt_base = dt_override if dt_override is not None else cfl_dt(u, reg)

    slab = spec.T / snapshots
    targets = [(k + 0.5) * slab for k in range(snapshots)] + [spec.T]
    eps = 1e-12 * max(spec.T, 1.0)

    times = np.array(targets)
    U = np.empty((len(targets), grid.n_cells))
    V = np.empty_like(U)
    dt_hist, cfl_hist, mass_hist = [], [], []
    mass = float(u.sum()) * grid.dx
    mass_hist.append(mass)
    max_drift = 0.0
    boundary_max = _boundary_abs(u)

    t = 0.0
    # near a blow-up the ledger sums and v overflow while u is still
    # finite; the check on u or on v then raises, with no warning printed
    with np.errstate(over="ignore", invalid="ignore"):
        for k, target in enumerate(targets):
            while target - t > eps:
                dt = min(dt_base, target - t)
                u, flux, src, a = step(u, dt, t, reg)
                t += dt
                new_mass = float(u.sum()) * grid.dx
                # src is an array or the scalar 0.0; add.reduce takes both
                expected = mass - dt * (float(flux[-1]) - float(flux[0])) \
                    + dt * grid.dx * float(np.add.reduce(src))
                max_drift = max(max_drift, abs(new_mass - expected))
                mass = new_mass
                dt_hist.append(dt)
                cfl_hist.append(dt * float(a.max()) / grid.dx)
                mass_hist.append(mass)
                boundary_max = max(boundary_max, _boundary_abs(u))
            t = target
            U[k] = u
            V[k] = reg.theta.v_of_u(u)
            if not np.isfinite(V[k]).all():
                raise SolverError(_NON_FINITE % t)

    warnings = []
    if boundary_max > 1e-12:
        warnings.append(
            "state reached the boundary cells (max %.3e); enlarge the domain"
            % boundary_max)
    return RunResult(grid, times, U, V, np.asarray(dt_hist),
                     np.asarray(cfl_hist), np.asarray(mass_hist),
                     max_drift, boundary_max, warnings)
