"""Fault injection: no fault of an objective evaluation makes ``minimize`` raise.

A wrapper objective fires one fault at a chosen evaluation and behaves
like the wrapped problem at every other one.  Every run must end with a
documented status, and every iteration that completed before the fault
fired must match the fault-free run exactly.  A gradient returned as a
list is well formed: that run matches the fault-free run throughout.
Nor does the caller's floating-point setting change a report.
"""

import contextlib
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cautious_lbfgs import (
    CautiousParams,
    LineSearchParams,
    NewtonError,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Problem,
    Rosenbrock,
    SolverConfig,
    Space,
    make_grid_space,
    minimize,
    problems,
)
from cautious_lbfgs.solver import LINE_SEARCHES, TRACE_FIELDS

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


@contextlib.contextmanager
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# numpy's defaults, every warning an error, and every floating-point event raised
CALLER_SETTINGS = {
    "defaults": contextlib.nullcontext,
    "warnings_as_errors": warnings_as_errors,
    "errstate_raise": lambda: np.errstate(all="raise"),
}


def report_key(report):
    """Status, reason, the TRACE_FIELDS of every record and the bytes of x_final."""
    fields = [tuple(getattr(r, name) for name in TRACE_FIELDS) for r in report.trace]
    return report.status, report.reason, fields, report.x_final.tobytes()


@pytest.mark.parametrize("ls", LINE_SEARCHES)
@pytest.mark.parametrize("problem_id", ["rosenbrock", "ocp"])
def test_report_does_not_depend_on_the_callers_floating_point_settings(problem_id, ls):
    # from (1e25, 0) the first trial overflows Rosenbrock's gradient and its
    # slope along the ray; from a control of scale 1e6 the state's exp
    # underflows, which numpy's raise setting turned into an eval_error
    config = SolverConfig(cautious=CautiousParams(m=2), linesearch=ls, max_iter=30,
                          ls=LineSearchParams(maxfev=300))
    if problem_id == "rosenbrock":
        problem, x0 = Rosenbrock(), np.array([1e25, 0.0])
    else:
        problem = OcpControlProblem(OcpGrid(M=8))
        x0 = 1e6 * np.random.default_rng(0).standard_normal(problem.space.dim)
    keys = {}
    for name, setting in CALLER_SETTINGS.items():
        with setting():
            keys[name] = report_key(minimize(problem, problem.space, x0, config))
    assert keys["warnings_as_errors"] == keys["defaults"]
    assert keys["errstate_raise"] == keys["defaults"]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(PROBLEMS)),
    st.sampled_from(["armijo", "wolfe", "mt", "gll"]),
    st.sampled_from([0, 1, 5]),
    st.sampled_from(["cautious", "classical"]),
    st.sampled_from(FAULTS),
    st.integers(1, 60),
)
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


# usable values of every constructor argument, at the smallest instances: Space
# and PiecewiseQuadratic at one block, make_grid_space and OcpGrid at M = 4; a
# c2 of 50 underflows the threshold, so that run filters at level 0
USABLE = {
    "dim": (3,), "weight": (1.0, 1e-300, 1e300), "n_blocks": (1,), "M": (4,), "nu": (1e-3, 1.0),
    "target": (None, 0.5), "m": (0, 2), "c0": (1e-4, 1.0), "c1": (1.0,), "c2": (None, 0.2, 50.0),
    "sigma": (1e-4,), "eta": (0.9,), "beta1": (0.5, 0.1), "beta2": (0.5, 0.9), "maxfev": (20, 1),
    "stpmin": (0.0, 1e-20), "stpmax": (1000.0, 1.0), "xtol": (1e-7, 0.0), "gll_memory": (10, 1),
    "grad_tol": (1e-5, 1e-12), "max_iter": (5, 1),
}


@st.composite
def constructor_arguments(draw):
    """USABLE values, with up to three of them replaced by any float: NaN, ±inf, subnormals, negatives."""
    fuzzed = draw(st.sets(st.sampled_from(sorted(USABLE)), max_size=3))
    return {k: draw(st.floats() if k in fuzzed else st.sampled_from(usable)) for k, usable in USABLE.items()}


@settings(max_examples=300, deadline=None)
@given(
    constructor_arguments(),
    st.sampled_from(["pwquad", "ocp"]),
    st.sampled_from(["cautious", "classical"]),
    st.sampled_from(LINE_SEARCHES),
    st.booleans(),
)
@pytest.mark.filterwarnings("ignore::UserWarning")  # the linear-rate guard
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a fuzzed constructor argument
def test_constructors_reject_or_the_run_ends_in_a_status(v, problem_id, mode, ls, oracle_checks):
    try:
        if problem_id == "pwquad":
            problem = PiecewiseQuadratic(v["n_blocks"])
            space = Space(v["dim"], v["weight"])
            x0 = problem.b.copy()
        else:
            target = None if v["target"] is None else np.full(9, v["target"])
            space = make_grid_space(v["M"])
            problem = OcpControlProblem(OcpGrid(v["M"], v["nu"], target))
            x0 = np.zeros(space.dim)
        config = SolverConfig(
            cautious=CautiousParams(v["m"], v["c0"], v["c1"], v["c2"]),
            mode=mode,
            linesearch=ls,
            ls=LineSearchParams(v["sigma"], v["eta"], v["beta1"], v["beta2"], v["maxfev"],
                                v["stpmin"], v["stpmax"], v["xtol"], v["gll_memory"]),
            grad_tol=v["grad_tol"],
            max_iter=v["max_iter"],
            oracle_checks=oracle_checks,
        )
    except ValueError:
        return
    report = minimize(problem, space, x0, config)
    assert report.status in STATUSES
