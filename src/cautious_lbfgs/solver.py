"""Main iteration: cautious (filtered) or classical limited-memory BFGS.

Both modes share one code path.  The cautious mode recomputes a quality
threshold from the current gradient norm each iteration, uses only the
stored pairs passing it, and confines the seed scaling to
[threshold, 1/threshold]; the classical mode forces the filter open and
leaves the scaling unrestricted, so tracing differences between the two
modes isolates exactly the effect of the modification.
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
AUTO_AUDIT_DIM_LIMIT = 400


@dataclass
class SolverConfig:
    cautious: CautiousParams
    mode: str = "cautious"  # "cautious" | "classical"
    linesearch: str = "armijo"
    ls: LineSearchParams = field(default_factory=LineSearchParams)
    grad_tol: float = 1e-9
    max_iter: int = 50_000
    oracle_checks: bool | None = None  # None: auto (cautious mode, dim <= 400)
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
    """Scalars describing one completed iteration k.

    f and grad_norm are taken at the iterate the step departs from;
    n_stored counts the pairs available when the direction was formed and
    n_active how many of them passed the filter.
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


@dataclass
class SolveReport:
    status: str  # converged | max_iter | linesearch_failure | nonfinite
    x_final: np.ndarray
    f_final: float
    grad_norm_final: float
    trace: list[IterationRecord]
    n_iter: int
    n_feval: int
    n_geval: int
    n_pairs_stored: int
    n_unit_steps: int
    alpha_min: float
    alpha_max: float
    iterates: list[np.ndarray] | None = None
    audits: list[BoundReport] | None = None
    bound_violations: int = 0
    storage_snapshots: list[list[dict]] | None = None
    ls_failure: str | None = None

    def f_values(self) -> np.ndarray:
        """Objective values f(x_0), ..., f(x_K) including the final iterate."""
        return np.array([r.f for r in self.trace] + [self.f_final])

    def grad_norms(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.trace] + [self.grad_norm_final])

    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.trace])


class _ValueRay:
    """phi(alpha) = f(x + alpha d) counting objective evaluations."""

    def __init__(self, problem: Problem, x: np.ndarray, d: np.ndarray):
        self.problem = problem
        self.x = x
        self.d = d
        self.n_feval = 0

    def phi(self, alpha: float) -> float:
        self.n_feval += 1
        return self.problem.value(self.x + alpha * self.d)


class _JointRay:
    """phi/dphi sharing one objective-plus-gradient evaluation per step."""

    def __init__(self, problem: Problem, space: Space, x: np.ndarray, d: np.ndarray):
        self.problem = problem
        self.space = space
        self.x = x
        self.d = d
        self.n_feval = 0
        self.n_geval = 0
        self._cached: tuple[float, float, np.ndarray] | None = None

    def _evaluate(self, alpha: float) -> tuple[float, np.ndarray]:
        if self._cached is not None and self._cached[0] == alpha:
            return self._cached[1], self._cached[2]
        f, g = self.problem.value_and_grad(self.x + alpha * self.d)
        self.n_feval += 1
        self.n_geval += 1
        self._cached = (alpha, f, g)
        return f, g

    def phi(self, alpha: float) -> float:
        return self._evaluate(alpha)[0]

    def dphi(self, alpha: float) -> float:
        _, g = self._evaluate(alpha)
        return self.space.inner(g, self.d)

    def cached_grad(self, alpha: float) -> np.ndarray | None:
        if self._cached is not None and self._cached[0] == alpha:
            return self._cached[2]
        return None


class SolverState:
    """Owns one run; ``step`` performs a single iteration of the loop body."""

    def __init__(self, problem: Problem, space: Space, x0, config: SolverConfig):
        self.problem = problem
        self.space = space
        self.config = config
        self.x = space.check(x0).copy()
        self.k = 0
        self.status: str | None = None
        self.ls_failure: str | None = None
        self.store = SecantStore(config.cautious.m)
        self.trace: list[IterationRecord] = []
        self.n_feval = 0
        self.n_geval = 0
        self.audits: list[BoundReport] = []
        self.bound_violations = 0
        self.storage_snapshots: list[list[dict]] = []
        if config.oracle_checks is None:
            self.audit_enabled = config.mode == "cautious" and space.dim <= AUTO_AUDIT_DIM_LIMIT
        else:
            self.audit_enabled = config.oracle_checks

        self.f, self.grad = problem.value_and_grad(self.x)
        self.n_geval += 1
        self.grad_norm = space.norm(self.grad)
        self.iterates: list[np.ndarray] = [self.x.copy()] if config.keep_iterates else []
        self.f_history: deque[float] = deque([self.f], maxlen=config.ls.gll_memory)
        if not (np.isfinite(self.f) and np.all(np.isfinite(self.grad))):
            self.status = "nonfinite"

    @property
    def terminated(self) -> bool:
        return self.status is not None

    def step(self) -> IterationRecord | None:
        """Run one iteration; return its record, or None on a termination event."""
        if self.status is not None:
            return None
        if self.grad_norm <= self.config.grad_tol:
            self.status = "converged"
            return None
        if self.k >= self.config.max_iter:
            self.status = "max_iter"
            return None

        cfg = self.config
        cautious = cfg.mode == "cautious"
        omega = cautious_threshold(self.grad_norm, cfg.cautious)
        # Degenerate-interval target: plain unscaled seed on the very first
        # iteration, unit-step gradient scaling after a rejected pair.
        fallback = 1.0 if self.k == 0 else 1.0 / self.grad_norm
        gamma = choose_seed_scaling(self.store, omega, fallback, restrict=cautious)
        active = self.store.active(omega) if cautious else list(self.store.pairs)
        n_stored = len(self.store)
        d = two_loop(self.space, active, gamma, self.grad)
        dphi0 = self.space.inner(self.grad, d)
        if not dphi0 < 0.0:
            raise RuntimeError(f"direction is not a descent direction: dphi0 = {dphi0}")

        if self.audit_enabled:
            H = TwoLoopOperator(self.space, active, gamma)
            report = cautious_bound_report(H, omega, cfg.cautious.m)
            self.audits.append(report)
            if not report.ok:
                self.bound_violations += 1

        try:
            outcome = self._search(d, dphi0)
        except LineSearchError as err:
            self.status = "linesearch_failure"
            self.ls_failure = err.reason
            return None

        alpha = outcome.alpha
        s = alpha * d
        x_new = self.x + s
        f_new = outcome.f_new
        if outcome.grad_new is not None:
            grad_new = outcome.grad_new
        else:
            _, grad_new = self.problem.value_and_grad(x_new)
            self.n_geval += 1
        if not (np.isfinite(f_new) and np.all(np.isfinite(grad_new))):
            self.x, self.f = x_new, f_new
            self.grad, self.grad_norm = grad_new, float("nan")
            self.status = "nonfinite"
            return None

        y = grad_new - self.grad
        stored = self.store.push(self.space, s, y, index=self.k)
        record = IterationRecord(
            k=self.k,
            f=self.f,
            grad_norm=self.grad_norm,
            omega=omega,
            gamma=gamma,
            n_active=len(active),
            n_stored=n_stored,
            alpha=alpha,
            pair_stored=stored,
            n_feval_ls=outcome.n_feval,
        )
        self.trace.append(record)
        if cfg.keep_storage:
            self.storage_snapshots.append(self.store.snapshot())

        self.x, self.f, self.grad = x_new, f_new, grad_new
        self.grad_norm = self.space.norm(grad_new)
        self.f_history.append(f_new)
        if cfg.keep_iterates:
            self.iterates.append(x_new.copy())
        self.k += 1
        return record

    def _search(self, d: np.ndarray, dphi0: float) -> LineSearchOutcome:
        # counters accrue even when the search fails: the trials happened
        cfg = self.config
        if cfg.linesearch in ("armijo", "gll"):
            ray = _ValueRay(self.problem, self.x, d)
            try:
                if cfg.linesearch == "armijo":
                    return armijo_backtrack(ray.phi, self.f, dphi0, cfg.ls)
                return gll_nonmonotone(ray.phi, dphi0, self.f_history, cfg.ls)
            finally:
                self.n_feval += ray.n_feval
        ray = _JointRay(self.problem, self.space, self.x, d)
        try:
            if cfg.linesearch == "wolfe":
                outcome = wolfe_weak(ray.phi, ray.dphi, cfg.ls, phi0=self.f, dphi0=dphi0)
            else:
                outcome = more_thuente(ray.phi, ray.dphi, cfg.ls, phi0=self.f, dphi0=dphi0)
        finally:
            self.n_feval += ray.n_feval
            self.n_geval += ray.n_geval
        outcome.grad_new = ray.cached_grad(outcome.alpha)
        return outcome

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
            n_geval=self.n_geval,
            n_pairs_stored=sum(r.pair_stored for r in self.trace),
            n_unit_steps=sum(r.alpha == 1.0 for r in self.trace),
            alpha_min=min(alphas) if alphas else math.nan,
            alpha_max=max(alphas) if alphas else math.nan,
            iterates=list(self.iterates) if self.config.keep_iterates else None,
            audits=list(self.audits) if self.audit_enabled else None,
            bound_violations=self.bound_violations,
            storage_snapshots=list(self.storage_snapshots) if self.config.keep_storage else None,
            ls_failure=self.ls_failure,
        )


def minimize(problem: Problem, space: Space, x0, config: SolverConfig) -> SolveReport:
    """Drive :class:`SolverState` until a termination event fires.

    On ``converged`` the final gradient norm is at or below grad_tol; a
    line-search failure or a nonfinite evaluation ends the run with the
    corresponding status and the trace collected so far.
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
