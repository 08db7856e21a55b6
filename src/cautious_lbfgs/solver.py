"""Main iteration: cautious (filtered) or classical limited-memory BFGS.

Both modes run one iteration at a filter level.  Each iteration computes
the quality threshold omega from the current gradient norm; the cautious
mode filters at omega, using only the stored pairs passing it and
confining the seed scaling to [omega, 1/omega].  The classical mode
filters at level 0, which passes every stored pair and leaves the
scaling unclamped: L-BFGS/BB.  Tracing differences between the two
modes therefore isolates exactly the effect of the modification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

# dense_hessian_inverse is not called here; it stays importable from this
# module for tools that wrap the solver's calls by name (bench/tracing.py)
from .direction import (
    BoundReport,
    cautious_bound_report,
    dense_hessian_inverse,
    two_loop,
)
from .linesearch import (
    LineSearchError,
    LineSearchOutcome,
    LineSearchParams,
    armijo_backtrack,
    gll_nonmonotone,
    more_thuente,
    wolfe_weak,
)
from .problems import Problem
from .secant_store import (
    CautiousParams,
    SecantStore,
    cautious_threshold,
    choose_seed_scaling,
)
from .space import Space

LINE_SEARCHES = ("armijo", "wolfe", "mt", "gll")
# what an objective raises when it cannot be evaluated: NewtonError and a
# singular SuperLU factor are RuntimeErrors, LinAlgError and math domain
# errors ValueErrors, and Python's float overflow, or numpy's floating-point
# events where an objective sets its own error state to raise them,
# ArithmeticErrors; a malformed result fails its check with a ValueError
# (wrong gradient shape) or a TypeError (an f that is not a scalar)
EVAL_ERRORS = (ArithmeticError, RuntimeError, TypeError, ValueError)
# the iterate-defining scalars of an IterationRecord, compared by compare_traces
TRACE_FIELDS = ("gamma", "alpha", "n_active")


@dataclass
class SolverConfig:
    cautious: CautiousParams
    mode: str = "cautious"  # "cautious" | "classical"
    linesearch: str = "armijo"
    ls: LineSearchParams = field(default_factory=LineSearchParams)
    grad_tol: float = 1e-9
    max_iter: int = 50_000
    oracle_checks: bool = False
    keep_iterates: bool = True
    keep_storage: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("cautious", "classical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.linesearch not in LINE_SEARCHES:
            raise ValueError(f"unknown line search {self.linesearch!r}")
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if not isinstance(self.max_iter, Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        # the linear-rate theory needs c2 below a bound set by m and the line search
        m, c2 = self.cautious.m, self.cautious.c2
        bound = 1.0 / (2 * m + 2) if self.linesearch in ("wolfe", "mt") else 1.0 / (2 * m + 1)
        if c2 >= bound:
            import warnings

            warnings.warn(
                f"c2 = {c2} >= {bound}; the linear-rate guarantee "
                "does not cover this configuration",
                stacklevel=3,  # the line that built the config, past the dataclass __init__
            )


@dataclass(slots=True)
class IterationRecord:
    """What one completed iteration k did: the run's only per-iteration record.

    f and grad_norm are taken at the iterate the step departs from;
    n_stored counts the pairs available when the direction was formed and
    n_active how many of them passed the filter.  omega is the computed
    threshold in both modes, also where classical mode filters at 0.
    ``storage`` is the store's scalar snapshot after the iteration's push,
    kept when the config asks for it.  Fields that a run does not record
    are None.  One is built per iteration, so it is a slot dataclass
    rather than a frozen one, whose construction costs more; callers
    treat it as read-only.
    """

    k: int
    f: float
    grad_norm: float
    omega: float
    gamma: float
    n_active: int
    n_stored: int
    alpha: float
    pair_stored: bool
    n_feval_ls: int
    storage: list[dict] | None = None


@dataclass
class SolveReport:
    # converged | max_iter | linesearch_failure | nonfinite | eval_error | non_descent;
    # every status but converged comes with a reason
    status: str
    x_final: np.ndarray
    f_final: float
    grad_norm_final: float
    trace: list[IterationRecord]
    n_iter: int
    n_feval: int  # distinct trial steps evaluated by the line searches
    n_geval: int  # n_feval + 1: every evaluation returns the gradient, plus the start
    n_pairs_stored: int
    n_unit_steps: int
    alpha_min: float
    alpha_max: float
    # x_0, ..., x_K when the config keeps them, each recorded uncopied: every
    # iterate is a fresh array that the solver never writes afterwards, and
    # iterates[-1] is x_final itself, except after a nonfinite step, which
    # x_final holds and the list does not
    iterates: list[np.ndarray] | None = None
    # an audit precedes its line search, so a run that stopped inside an
    # iteration has one audit more than it has records
    audits: list[BoundReport] | None = None
    bound_violations: int = 0  # audits whose bounds failed
    reason: str | None = None

    def f_values(self) -> np.ndarray:
        """Objective values f(x_0), ..., f(x_K) including the final iterate."""
        return np.array([r.f for r in self.trace] + [self.f_final])

    def grad_norms(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.trace] + [self.grad_norm_final])

    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.trace])


class _EvalFailure(Exception):
    """An objective evaluation raised one of EVAL_ERRORS; the message names it."""


def _evaluate(problem: Problem, space: Space, x: np.ndarray) -> tuple[float, np.ndarray]:
    """f and gradient at x, each checked once: f is a float, the gradient a vector of the space."""
    try:
        f, grad = problem.value_and_grad(x)
        return float(f), space.check(grad)
    except EVAL_ERRORS as exc:
        raise _EvalFailure(f"{type(exc).__name__}: {exc}") from exc


class _Ray:
    """phi/dphi along x + alpha d from one objective-plus-gradient evaluation per step.

    ``n_feval`` counts the distinct steps evaluated.  Every search returns
    right after evaluating the step it accepts, so after a successful
    search ``point``, ``f`` and ``grad`` are the values there.
    """

    def __init__(self, problem: Problem, space: Space, x: np.ndarray, d: np.ndarray):
        self.problem = problem
        self.space = space
        self.x = x
        self.d = d
        self.n_feval = 0
        self.alpha = self.point = self.f = self.grad = None  # the latest evaluation

    def _evaluate(self, alpha: float) -> None:
        if alpha != self.alpha:
            self.n_feval += 1
            self.point = self.x + alpha * self.d
            self.f, self.grad = _evaluate(self.problem, self.space, self.point)
            self.alpha = alpha

    def phi(self, alpha: float) -> float:
        self._evaluate(alpha)
        return self.f

    def dphi(self, alpha: float) -> float:
        self._evaluate(alpha)
        return self.space.inner_unchecked(self.grad, self.d)


def _search(config: SolverConfig, ray: _Ray, f: float, dphi0: float,
            trace: list[IterationRecord]) -> LineSearchOutcome:
    """The configured line search along ``ray`` from the value f and slope dphi0.

    The nonmonotone rule's history is the f of the last gll_memory - 1
    records of ``trace``, then f.
    """
    if config.linesearch == "armijo":
        return armijo_backtrack(ray.phi, f, dphi0, config.ls)
    if config.linesearch == "gll":
        window = trace[max(0, len(trace) + 1 - config.ls.gll_memory):]
        return gll_nonmonotone(ray.phi, dphi0, [r.f for r in window] + [f], config.ls)
    if config.linesearch == "wolfe":
        return wolfe_weak(ray.phi, ray.dphi, config.ls, phi0=f, dphi0=dphi0)
    return more_thuente(ray.phi, ray.dphi, config.ls, phi0=f, dphi0=dphi0)


def minimize(problem: Problem, space: Space, x0, config: SolverConfig) -> SolveReport:
    """Iterate from x0 until a termination event fires, and report the run.

    Every evaluation is a call of ``problem.value_and_grad``.  The norm
    audit of each direction runs only where the config asks for it; it
    is exact, by :func:`two_loop_norms` on an eigenproblem of size at
    most twice the number of pairs applied.  On ``converged`` the final
    gradient norm is at or below grad_tol.  A line-search failure, a
    nonfinite or failed evaluation, or a direction without descent ends
    the run with the corresponding status, its reason, and the trace
    collected so far; none of them raises.

    x0 and each evaluation's result are checked once, where they enter;
    the arithmetic after that trusts them and takes the space's unchecked
    products.

    The whole run, the start evaluation included, takes place under
    ``np.errstate(all="ignore")``: an overflow or invalid operation gives
    an inf or NaN, which the finiteness checks turn into a status.  So
    the report does not depend on the caller's ``np.errstate`` or
    warnings filter, and no floating-point event leaves this function as
    a warning or an exception.  An objective that wants numpy's errors
    can set its own error state inside ``value_and_grad``; a warning it
    issues itself is not caught.
    """
    with np.errstate(all="ignore"):
        return _minimize(problem, space, x0, config)


def _minimize(problem: Problem, space: Space, x0, config: SolverConfig) -> SolveReport:
    """The body of :func:`minimize`, under the error state it sets."""
    x = space.check(x0).copy()
    status = reason = None
    store = SecantStore(config.cautious.m)
    trace: list[IterationRecord] = []
    audits: list[BoundReport] = []
    iterates = [x] if config.keep_iterates else None
    n_feval = 0
    try:
        f, grad = _evaluate(problem, space, x)
    except _EvalFailure as err:
        f, grad = math.nan, np.full(space.dim, math.nan)
        status, reason = "eval_error", str(err)
    grad_norm = space.norm_unchecked(grad)
    if status is None and not (math.isfinite(f) and math.isfinite(grad_norm)):
        status, reason = "nonfinite", "nonfinite objective or gradient at the starting point"

    while status is None:
        if grad_norm <= config.grad_tol:
            status = "converged"
            break
        k = len(trace)
        if k >= config.max_iter:
            status = "max_iter"
            reason = f"gradient norm {grad_norm} above {config.grad_tol} after {k} iterations"
            break

        omega = cautious_threshold(grad_norm, config.cautious)
        level = omega if config.mode == "cautious" else 0.0
        # No usable pair: plain unscaled seed on the very first
        # iteration, unit-step gradient scaling after a rejected pair.
        fallback = 1.0 if k == 0 else 1.0 / grad_norm
        gamma = choose_seed_scaling(store, level, fallback)
        active = store.active(level)
        n_stored = len(store)
        d = two_loop(space, active, gamma, grad)
        dphi0 = space.inner_unchecked(grad, d)
        if not dphi0 < 0.0:
            status, reason = "non_descent", f"direction is not a descent direction: dphi0 = {dphi0}"
            break

        if config.oracle_checks:
            audits.append(cautious_bound_report(space, active, gamma, omega, config.cautious.m))

        ray = _Ray(problem, space, x, d)
        try:
            outcome = _search(config, ray, f, dphi0, trace)
        except LineSearchError as err:
            status, reason = "linesearch_failure", str(err)
            break
        except _EvalFailure as err:
            status, reason = "eval_error", str(err)
            break
        finally:
            # the trials of a failed search happened too
            n_feval += ray.n_feval
        alpha, x_new, f_new, grad_new = outcome.alpha, ray.point, ray.f, ray.grad
        grad_norm_new = space.norm_unchecked(grad_new)
        # a NaN or infinite entry, or finite entries whose norm overflows
        if not (math.isfinite(f_new) and math.isfinite(grad_norm_new)):
            x, f, grad, grad_norm = x_new, f_new, grad_new, grad_norm_new
            status, reason = "nonfinite", f"nonfinite objective or gradient at iterate {k + 1}"
            break

        stored = store.push(space, alpha * d, grad_new - grad, index=k)
        trace.append(IterationRecord(
            k=k, f=f, grad_norm=grad_norm, omega=omega, gamma=gamma, n_active=len(active),
            n_stored=n_stored, alpha=alpha, pair_stored=stored, n_feval_ls=outcome.n_feval,
            storage=store.snapshot() if config.keep_storage else None,
        ))
        x, f, grad, grad_norm = x_new, f_new, grad_new, grad_norm_new
        if iterates is not None:
            iterates.append(x)

    alphas = [r.alpha for r in trace]
    return SolveReport(
        status=status, x_final=x, f_final=f, grad_norm_final=grad_norm, trace=trace,
        n_iter=len(trace), n_feval=n_feval, n_geval=n_feval + 1,
        n_pairs_stored=sum(r.pair_stored for r in trace),
        n_unit_steps=sum(r.alpha == 1.0 for r in trace),
        alpha_min=min(alphas, default=math.nan), alpha_max=max(alphas, default=math.nan),
        iterates=iterates, audits=audits if config.oracle_checks else None,
        bound_violations=sum(not a.ok for a in audits), reason=reason,
    )


def compare_traces(a: SolveReport, b: SolveReport) -> int | None:
    """First iteration index at which two runs differ, or None if identical.

    Compares the TRACE_FIELDS of each record exactly (no tolerance) and the
    final iterates elementwise; a length mismatch diverges at the end of
    the shorter trace.
    """
    for i, (ra, rb) in enumerate(zip(a.trace, b.trace)):
        for name in TRACE_FIELDS:
            if getattr(ra, name) != getattr(rb, name):
                return i
    if len(a.trace) != len(b.trace):
        return min(len(a.trace), len(b.trace))
    if not np.array_equal(a.x_final, b.x_final):
        return len(a.trace)
    return None
