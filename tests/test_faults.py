"""Fault injection: no fault of an objective evaluation makes ``minimize`` raise.

A wrapper objective fires one fault at a chosen evaluation and behaves
like the wrapped problem at every other one.  Every run must end with a
documented status, and every iteration that completed before the fault
fired must match the fault-free run exactly.  A gradient returned as a
list is well formed: that run matches the fault-free run throughout.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cautious_lbfgs import (
    CautiousParams,
    NewtonError,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Problem,
    Rosenbrock,
    SolverConfig,
    minimize,
    problems,
)

STATUSES = {"converged", "max_iter", "linesearch_failure", "nonfinite", "eval_error", "non_descent"}
FAULTS = ("nan_f", "inf_f", "nan_grad", "newton_error", "zero_division", "repeat_grad", "huge_grad",
          "short_grad", "array_f", "list_grad")
PROBLEMS = {"rosenbrock": Rosenbrock(), "pwquad": PiecewiseQuadratic(3)}
STARTS = {"rosenbrock": np.array([-1.2, 1.0]), "pwquad": PROBLEMS["pwquad"].b + 0.3}
MAX_ITER = 150


class Faulty(Problem):
    """``inner`` with ``fault`` fired at evaluation number ``at`` (1 is the start)."""

    def __init__(self, inner: Problem, fault: str | None = None, at: int = 0):
        self.inner, self.space, self.fault, self.at = inner, inner.space, fault, at
        self.calls = 0
        self.previous_grad = None

    def value_and_grad(self, x):
        self.calls += 1
        f, grad = self.inner.value_and_grad(x)
        previous, self.previous_grad = self.previous_grad, grad
        if self.calls != self.at:
            return f, grad
        if self.fault == "newton_error":
            raise NewtonError("injected")
        if self.fault == "zero_division":
            raise ZeroDivisionError("injected")
        if self.fault == "nan_f":
            return math.nan, grad
        if self.fault == "inf_f":
            return math.inf, grad
        if self.fault == "nan_grad":
            grad = grad.copy()
            grad[0] = math.nan
            return f, grad
        if self.fault == "repeat_grad":  # y = 0 when the previous evaluation was the last iterate
            return f, grad if previous is None else previous.copy()
        if self.fault == "short_grad":  # a malformed result: the gradient misses an entry
            return f, grad[:-1]
        if self.fault == "array_f":  # a malformed result: f is not a scalar
            return np.array([f, f]), grad
        if self.fault == "list_grad":  # a well-formed result that is not an array
            return f, grad.tolist()
        assert self.fault == "huge_grad"  # finite entries whose norm overflows
        return f, grad * 1e300


class CountingMatmul:
    """Delegates ``@`` to a matrix and counts the products; ``+`` (assembling a Jacobian) is not counted."""

    def __init__(self, matrix):
        self.matrix, self.count = matrix, 0

    def __matmul__(self, other):
        self.count += 1
        return self.matrix @ other

    def __add__(self, other):
        return self.matrix + other


class CountingOcp(OcpControlProblem):
    """Counts value_and_grad calls and, through the Laplacian, residual evaluations."""

    def __init__(self, grid):
        super().__init__(grid)
        self.laplacian = CountingMatmul(self.laplacian)
        self.calls = 0

    def value_and_grad(self, u):
        self.calls += 1
        return super().value_and_grad(u)


def run(problem_id, ls, m, mode, fault=None, at=0):
    problem = Faulty(PROBLEMS[problem_id], fault, at)
    config = SolverConfig(cautious=CautiousParams(m=m), mode=mode, linesearch=ls,
                          grad_tol=1e-5, max_iter=MAX_ITER, keep_iterates=False)
    return minimize(problem, problem.space, STARTS[problem_id], config)


@functools.cache
def clean_run(problem_id, ls, m, mode):
    return run(problem_id, ls, m, mode)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["cautious", "classical"])
@pytest.mark.parametrize("ls", ["armijo", "wolfe", "mt", "gll"])
def test_overflowing_gradient_norm_stops_the_run(ls, mode):
    # the step the first search accepts without the fault returns its
    # gradient times 1e300: every entry is finite, but the norm overflows
    at = 1 + clean_run("pwquad", ls, 1, mode).trace[0].n_feval_ls
    report = run("pwquad", ls, 1, mode, "huge_grad", at)
    assert report.n_iter == 0
    if ls == "mt":
        # the strong curvature test reads the slope's modulus, so the search
        # itself rejects the step and then finds no other
        assert report.status == "linesearch_failure"
        return
    assert report.status == "nonfinite"
    assert report.reason == "nonfinite objective or gradient at iterate 1"
    assert report.grad_norm_final == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e300, -1e300])
@pytest.mark.parametrize("ls", ["armijo", "mt"])
def test_overflowing_control_ends_within_the_newton_budget(ls, scale):
    # a control this large overflows the grid norm of the state residual
    # at y = 0, so no damped step can reduce it and the residual is not a
    # finite one at its rounding floor: the state solve ends the run at its
    # first evaluation with a NewtonError.  A call evaluates
    # the residual once at y = 0 and then, in each of NEWTON_MAX = 50 steps,
    # once at the full step and at most 40 times more while damping halves
    # it (t = 1/2, ..., 2^-40).  Whether a step is the chord step or, where
    # that fails to halve its predecessor, the Newton step on a fresh factor
    # is decided from the step sizes before any residual is evaluated, so a
    # call that raises makes at most 1 + 41 * NEWTON_MAX products with the
    # Laplacian (the adjoint's products follow only a state solve that returns)
    problem = CountingOcp(OcpGrid(M=8))
    config = SolverConfig(cautious=CautiousParams(m=5), linesearch=ls, max_iter=MAX_ITER,
                          keep_iterates=False)
    report = minimize(problem, problem.space, np.full(problem.space.dim, scale), config)
    assert report.status == "eval_error"
    assert report.reason.startswith("NewtonError")
    assert problem.calls >= 1
    assert problem.laplacian.count <= problem.calls * (problems.NEWTON_MAX * 41 + 1)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(PROBLEMS)),
    st.sampled_from(["armijo", "wolfe", "mt", "gll"]),
    st.sampled_from([0, 1, 5]),
    st.sampled_from(["cautious", "classical"]),
    st.sampled_from(FAULTS),
    st.integers(1, 60),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_minimize_survives_any_evaluation_fault(problem_id, ls, m, mode, fault, at):
    clean = clean_run(problem_id, ls, m, mode)
    report = run(problem_id, ls, m, mode, fault, at)
    assert report.status in STATUSES
    assert (report.reason is None) == (report.status == "converged")
    assert report.n_geval == report.n_feval + 1
    # iteration k completes after evaluation 1 + (trials of iterations 0..k)
    completed = np.cumsum([1] + [r.n_feval_ls for r in clean.trace])[1:]
    n_before = int(np.sum(completed < at))
    assert report.trace[:n_before] == clean.trace[:n_before]
    if at > clean.n_geval:  # the fault never fired
        return
    if fault == "list_grad":
        # minimize converts the gradient where it checks it, and its
        # arithmetic reads only the converted array
        assert (report.status, report.reason, report.trace) == (clean.status, clean.reason, clean.trace)
        assert (report.f_final, report.grad_norm_final) == (clean.f_final, clean.grad_norm_final)
        assert report.n_feval == clean.n_feval
        assert np.array_equal(report.x_final, clean.x_final)
    elif fault in ("short_grad", "array_f"):
        assert report.status == "eval_error"
