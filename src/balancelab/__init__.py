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

import os

# OpenBLAS reads its thread count once, when numpy loads it.  The lab's
# matrix products are thin, and an idle second BLAS thread only spins on
# another CPU, so numpy is loaded here with one BLAS thread unless the user
# has set OPENBLAS_NUM_THREADS.  Nothing changes if numpy was loaded before
# balancelab.  The variable is taken back out once numpy has loaded, so
# child processes see the user's environment.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
del os, numpy

from .config import load_config
from .flux import FluxCurve, build_parametrization, smooth_flux
from .monotone import (
    MonotoneGraph,
    Table,
    check_inverse_convergence,
    compose_graphs,
    invert_graph,
    resolvent,
    yosida,
)
from .problem import validate_spec
from .solver import Grid1D, solve

__version__ = "0.1.0"

__all__ = [
    "load_config",
    "FluxCurve",
    "build_parametrization",
    "smooth_flux",
    "MonotoneGraph",
    "Table",
    "check_inverse_convergence",
    "compose_graphs",
    "invert_graph",
    "resolvent",
    "yosida",
    "validate_spec",
    "Grid1D",
    "solve",
    "__version__",
]
