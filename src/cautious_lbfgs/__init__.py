"""Globalized limited-memory BFGS / Barzilai-Borwein solver.

A limited-memory quasi-Newton method over a pluggable inner-product
space, with per-iteration cautious filtering of the stored curvature
pairs, four line searches, exact operator-norm audits, and
convergence-rate diagnostics.

The names below are the package's API.  The building blocks (the
two-loop recursion and the dense inverse-Hessian oracle in ``direction``,
the four searches in ``linesearch``, the filter helpers in
``secant_store``) come from their submodules; the Hessian oracle is test code.
"""

from .diagnostics import (
    ContractionReport,
    RateConstants,
    RateReport,
    error_sequences,
    linear_rate_check,
    lstep_qlinear,
    q_factors,
)
from .direction import BoundReport, cautious_bound_report, two_loop_norms
from .linesearch import LineSearchError, LineSearchParams
from .problems import (
    NewtonError,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Problem,
    Rosenbrock,
    fd_gradient_check,
)
from .secant_store import CautiousParams, SecantStore
from .solver import IterationRecord, SolveReport, SolverConfig, compare_traces, minimize
from .space import Space, make_grid_space

__all__ = [
    "BoundReport",
    "CautiousParams",
    "ContractionReport",
    "IterationRecord",
    "LineSearchError",
    "LineSearchParams",
    "NewtonError",
    "OcpControlProblem",
    "OcpGrid",
    "PiecewiseQuadratic",
    "Problem",
    "RateConstants",
    "RateReport",
    "Rosenbrock",
    "SecantStore",
    "SolveReport",
    "SolverConfig",
    "Space",
    "cautious_bound_report",
    "compare_traces",
    "error_sequences",
    "fd_gradient_check",
    "linear_rate_check",
    "lstep_qlinear",
    "make_grid_space",
    "minimize",
    "q_factors",
    "two_loop_norms",
]
