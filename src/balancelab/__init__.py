"""Finite-volume laboratory for 1D scalar balance laws of the form

    u_t + (A(theta(x, u)))_x = f(t, x, u)

where theta(x, .) is a maximal monotone (possibly multivalued) graph in a
transformed variable and A is a continuous or jump-continuous flux.  The
package bundles:

* monotone-graph calculus (resolvents, Yosida approximations, inversion,
  composition, smooth regularization) in :mod:`balancelab.monotone`;
* flux sampling, jump handling and the continuous reparametrization that
  fills flux jumps with affine plateaus in :mod:`balancelab.flux`;
* problem assembly (initial data, sources, heterogeneous coefficients,
  dissipative perturbations) in :mod:`balancelab.problem`;
* a conservative explicit finite-volume solver in :mod:`balancelab.solver`;
* entropy-inequality residual batteries and pairwise contraction /
  comparison checks in :mod:`balancelab.entropy`;
* Young-measure estimation from solver ensembles and measure-valued
  entropy residuals in :mod:`balancelab.measures`;
* convergence-study drivers (index schedules, grid refinement) in
  :mod:`balancelab.harness`;
* JSON run configuration and a command line front end in
  :mod:`balancelab.config` and :mod:`balancelab.cli`.
"""

from .config import ConfigError, RunConfig, load_config, save_config
from .entropy import (
    FORMS,
    EntropyReport,
    ResidualEvaluator,
    TestFunction,
    battery_from_geometry,
    initial_trace_error,
    k_samples,
    l1_distance_curve,
    pair_gap_battery,
    standard_battery,
)
from .flux import (
    FluxCurve,
    Parametrization,
    build_parametrization,
    mollify_callable,
    smooth_flux,
)
from .harness import (
    ScheduleReport,
    double_limit_run,
    j_schedule_run,
    monotone_in_ell_check,
    monotone_in_m_check,
    scheme_tol,
    self_convergence_order,
    solve_points,
)
from .measures import (
    MeasureContext,
    YoungMeasureEstimate,
    averaged_contraction_gap,
    default_support_radius,
    dirac_estimate,
    estimate_young_measure,
    mu_is_atom,
    mv_residual_table,
    support_and_trace_check,
    write_mv_table_csv,
)
from .monotone import (
    MonotoneGraph,
    Table,
    ThetaField,
    ThetaRegularization,
    check_inverse_convergence,
    compose_graphs,
    graph_fn,
    invert_graph,
    regularize_theta,
    resolvent,
    yosida,
)
from .problem import (
    ProblemSpec,
    SourceSpec,
    ValidationReport,
    initial_state,
    perturbation,
    validate_spec,
)
from .solver import (
    DEFAULT_CFL,
    Field,
    Grid1D,
    RegularizedProblem,
    RunResult,
    SolverError,
    cfl_dt,
    regularized,
    run_to_csv,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "save_config",
    "FORMS",
    "EntropyReport",
    "ResidualEvaluator",
    "TestFunction",
    "battery_from_geometry",
    "initial_trace_error",
    "k_samples",
    "l1_distance_curve",
    "pair_gap_battery",
    "standard_battery",
    "FluxCurve",
    "Parametrization",
    "build_parametrization",
    "mollify_callable",
    "smooth_flux",
    "ScheduleReport",
    "double_limit_run",
    "j_schedule_run",
    "monotone_in_ell_check",
    "monotone_in_m_check",
    "scheme_tol",
    "self_convergence_order",
    "solve_points",
    "MeasureContext",
    "YoungMeasureEstimate",
    "averaged_contraction_gap",
    "default_support_radius",
    "dirac_estimate",
    "estimate_young_measure",
    "mu_is_atom",
    "mv_residual_table",
    "support_and_trace_check",
    "write_mv_table_csv",
    "MonotoneGraph",
    "Table",
    "ThetaField",
    "ThetaRegularization",
    "check_inverse_convergence",
    "compose_graphs",
    "graph_fn",
    "invert_graph",
    "regularize_theta",
    "resolvent",
    "yosida",
    "ProblemSpec",
    "SourceSpec",
    "ValidationReport",
    "initial_state",
    "perturbation",
    "validate_spec",
    "DEFAULT_CFL",
    "Field",
    "Grid1D",
    "RegularizedProblem",
    "RunResult",
    "SolverError",
    "cfl_dt",
    "regularized",
    "run_to_csv",
    "solve",
    "__version__",
]
