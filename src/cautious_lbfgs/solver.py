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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# dense_hessian_inverse is not called here; it stays importable from this
# module for tools that wrap the solver's calls by name (bench/tracing.py)
from .direction import (
    BoundReport,
    TwoLoopOperator,
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
# errors ValueErrors, and numpy's raised floating-point events
# ArithmeticErrors; a malformed result fails its check with a ValueError
# (wrong gradient shape) or a TypeError (an f that is not a scalar)
EVAL_ERRORS = (ArithmeticError, RuntimeError, TypeError, ValueError)


@dataclass
class SolverConfig:
    cautious: CautiousParams
    mode: str = "cautious"  # "cautious" | "classical"
    linesearch: str = "armijo"
    ls: LineSearchParams = field(default_factory=LineSearchParams)
    grad_tol: float = 1e-9
    max_iter: int = 50_000
    oracle_checks: bool | None = None  # None: auto (on in cautious mode)
    keep_iterates: bool = True
    keep_storage: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("cautious", "classical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.linesearch not in LINE_SEARCHES:
            raise ValueError(f"unknown line search {self.linesearch!r}")
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        self.cautious.warn_if_rate_guard_violated(wolfe=self.linesearch in ("wolfe", "mt"))


@dataclass(frozen=True)
class IterationRecord:
    """What one completed iteration k did: the run's only per-iteration record.

    f and grad_norm are taken at the iterate the step departs from;
    n_stored counts the pairs available when the direction was formed and
    n_active how many of them passed the filter.  omega is the computed
    threshold in both modes, also where classical mode filters at 0.
    ``storage`` is the store's scalar snapshot after the iteration's push,
    kept when the config asks for it.  Fields that a run does not record
    are None.
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


def _evaluate(evaluate, space: Space, x: np.ndarray) -> tuple[float, np.ndarray]:
    """f and gradient at x, each checked once: f is a float, the gradient a vector of the space."""
    try:
        f, grad = evaluate(x)
        return float(f), space.check(grad)
    except EVAL_ERRORS as exc:
        raise _EvalFailure(f"{type(exc).__name__}: {exc}") from exc


class _Ray:
    """phi/dphi along x + alpha d from one objective-plus-gradient evaluation per step.

    ``n_feval`` counts the distinct steps evaluated.  Every search returns
    right after evaluating the step it accepts, so after a successful
    search ``point``, ``f`` and ``grad`` are the values there.
    """

    def __init__(self, evaluate, space: Space, x: np.ndarray, d: np.ndarray):
        self.evaluate = evaluate
        self.space = space
        self.x = x
        self.d = d
        self.n_feval = 0
        self.alpha = self.point = self.f = self.grad = None  # the latest evaluation

    def _evaluate(self, alpha: float) -> None:
        if alpha != self.alpha:
            self.n_feval += 1
            self.point = self.x + alpha * self.d
            self.f, self.grad = _evaluate(self.evaluate, self.space, self.point)
            self.alpha = alpha

    def phi(self, alpha: float) -> float:
        self._evaluate(alpha)
        return self.f

    def dphi(self, alpha: float) -> float:
        self._evaluate(alpha)
        return self.space.inner(self.grad, self.d)


class SolverState:
    """Owns one run; ``step`` performs a single iteration of the loop body.

    Every evaluation of the run goes through the one evaluator the
    problem returns for it, so a run's results depend only on its own
    evaluations, also where problems carry work between them.
    """

    def __init__(self, problem: Problem, space: Space, x0, config: SolverConfig):
        self.evaluate = problem.evaluator()
        self.space = space
        self.config = config
        self.x = space.check(x0).copy()
        self.status: str | None = None
        self.reason: str | None = None
        self.store = SecantStore(config.cautious.m)
        self.trace: list[IterationRecord] = []
        self.n_feval = 0
        self.audits: list[BoundReport] = []
        auto = config.oracle_checks is None
        self.audit_enabled = config.mode == "cautious" if auto else config.oracle_checks

        self.iterates: list[np.ndarray] = [self.x.copy()] if config.keep_iterates else []
        try:
            self.f, self.grad = _evaluate(self.evaluate, space, self.x)
        except _EvalFailure as err:
            self.f, self.grad = math.nan, np.full(space.dim, math.nan)
            self._stop("eval_error", str(err))
        self.grad_norm = space.norm(self.grad)
        self.f_history: deque[float] = deque([self.f], maxlen=config.ls.gll_memory)
        if self.status is None and not (math.isfinite(self.f) and math.isfinite(self.grad_norm)):
            self._stop("nonfinite", "nonfinite objective or gradient at the starting point")

    @property
    def terminated(self) -> bool:
        return self.status is not None

    def _stop(self, status: str, reason: str | None = None) -> None:
        self.status, self.reason = status, reason

    def step(self) -> IterationRecord | None:
        """Run one iteration; return its record, or None on a termination event."""
        if self.status is not None:
            return None
        if self.grad_norm <= self.config.grad_tol:
            self._stop("converged")
            return None
        k = len(self.trace)
        if k >= self.config.max_iter:
            self._stop("max_iter", f"gradient norm {self.grad_norm} above "
                                   f"{self.config.grad_tol} after {k} iterations")
            return None

        cfg = self.config
        omega = cautious_threshold(self.grad_norm, cfg.cautious)
        level = omega if cfg.mode == "cautious" else 0.0
        # Degenerate-interval target: plain unscaled seed on the very first
        # iteration, unit-step gradient scaling after a rejected pair.
        fallback = 1.0 if k == 0 else 1.0 / self.grad_norm
        gamma = choose_seed_scaling(self.store, level, fallback)
        active = self.store.active(level)
        n_stored = len(self.store)
        d = two_loop(self.space, active, gamma, self.grad)
        dphi0 = self.space.inner(self.grad, d)
        if not dphi0 < 0.0:
            self._stop("non_descent", f"direction is not a descent direction: dphi0 = {dphi0}")
            return None

        if self.audit_enabled:
            H = TwoLoopOperator(self.space, active, gamma)
            self.audits.append(cautious_bound_report(H, omega, cfg.cautious.m))

        ray = _Ray(self.evaluate, self.space, self.x, d)
        try:
            outcome = self._search(ray, dphi0)
        except LineSearchError as err:
            self._stop("linesearch_failure", str(err))
            return None
        except _EvalFailure as err:
            self._stop("eval_error", str(err))
            return None
        finally:
            # the trials of a failed search happened too
            self.n_feval += ray.n_feval
        alpha, x_new, f_new, grad_new = outcome.alpha, ray.point, outcome.f_new, ray.grad
        grad_norm_new = self.space.norm(grad_new)
        # a NaN or infinite entry, or finite entries whose norm overflows
        if not (math.isfinite(f_new) and math.isfinite(grad_norm_new)):
            self.x, self.f, self.grad, self.grad_norm = x_new, f_new, grad_new, grad_norm_new
            self._stop("nonfinite", f"nonfinite objective or gradient at iterate {k + 1}")
            return None

        s = alpha * d
        y = grad_new - self.grad
        stored = self.store.push(self.space, s, y, index=k)
        record = IterationRecord(
            k=k,
            f=self.f,
            grad_norm=self.grad_norm,
            omega=omega,
            gamma=gamma,
            n_active=len(active),
            n_stored=n_stored,
            alpha=alpha,
            pair_stored=stored,
            n_feval_ls=outcome.n_feval,
            storage=self.store.snapshot() if cfg.keep_storage else None,
        )
        self.trace.append(record)

        self.x, self.f, self.grad, self.grad_norm = x_new, f_new, grad_new, grad_norm_new
        self.f_history.append(f_new)
        if cfg.keep_iterates:
            self.iterates.append(x_new.copy())
        return record

    def _search(self, ray: _Ray, dphi0: float) -> LineSearchOutcome:
        cfg = self.config
        if cfg.linesearch == "armijo":
            return armijo_backtrack(ray.phi, self.f, dphi0, cfg.ls)
        if cfg.linesearch == "gll":
            return gll_nonmonotone(ray.phi, dphi0, self.f_history, cfg.ls)
        if cfg.linesearch == "wolfe":
            return wolfe_weak(ray.phi, ray.dphi, cfg.ls, phi0=self.f, dphi0=dphi0)
        return more_thuente(ray.phi, ray.dphi, cfg.ls, phi0=self.f, dphi0=dphi0)

    def report(self) -> SolveReport:
        alphas = [r.alpha for r in self.trace]
        return SolveReport(
            status=self.status if self.status is not None else "running",
            x_final=self.x.copy(),
            f_final=self.f,
            grad_norm_final=self.grad_norm,
            trace=list(self.trace),
            n_iter=len(self.trace),
            n_feval=self.n_feval,
            n_geval=self.n_feval + 1,
            n_pairs_stored=sum(r.pair_stored for r in self.trace),
            n_unit_steps=sum(r.alpha == 1.0 for r in self.trace),
            alpha_min=min(alphas) if alphas else math.nan,
            alpha_max=max(alphas) if alphas else math.nan,
            iterates=list(self.iterates) if self.config.keep_iterates else None,
            audits=list(self.audits) if self.audit_enabled else None,
            bound_violations=sum(not a.ok for a in self.audits),
            reason=self.reason,
        )


def minimize(problem: Problem, space: Space, x0, config: SolverConfig) -> SolveReport:
    """Drive :class:`SolverState` until a termination event fires.

    On ``converged`` the final gradient norm is at or below grad_tol.  A
    line-search failure, a nonfinite or failed evaluation, or a direction
    without descent ends the run with the corresponding status, its
    reason, and the trace collected so far; none of them raises.
    """
    state = SolverState(problem, space, x0, config)
    while not state.terminated:
        state.step()
    return state.report()


def compare_traces(
    a: SolveReport,
    b: SolveReport,
    fields: tuple[str, ...] = ("gamma", "alpha", "n_active"),
) -> int | None:
    """First iteration index at which two runs differ, or None if identical.

    Compares the iterate-defining scalars exactly (no tolerance) and the
    final iterates elementwise; a length mismatch diverges at the end of
    the shorter trace.
    """
    for i, (ra, rb) in enumerate(zip(a.trace, b.trace)):
        for name in fields:
            if getattr(ra, name) != getattr(rb, name):
                return i
    if len(a.trace) != len(b.trace):
        return min(len(a.trace), len(b.trace))
    if not np.array_equal(a.x_final, b.x_final):
        return len(a.trace)
    return None
