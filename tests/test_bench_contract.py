"""Every library name and attribute the benchmark in ``bench/`` uses still exists.

``bench/run.py --trace 1`` wraps solver and problem entry points by name,
so trimming ``__all__`` or the solver's imports can break it without any
other test failing.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from cautious_lbfgs import (
    LineSearchError,
    LineSearchParams,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Rosenbrock,
    SecantStore,
    SolveReport,
    SolverConfig,
    Space,
)
from cautious_lbfgs import problems, solver
from cautious_lbfgs.linesearch import LineSearchOutcome

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_imports():
    """(module, name) for every ``from cautious_lbfgs... import name`` in bench/."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cautious_lbfgs"):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_bench_imports_are_found():
    assert {
        ("cautious_lbfgs", "CautiousParams"), ("cautious_lbfgs", "LineSearchParams"),
        ("cautious_lbfgs", "OcpControlProblem"), ("cautious_lbfgs", "OcpGrid"),
        ("cautious_lbfgs", "PiecewiseQuadratic"), ("cautious_lbfgs", "Rosenbrock"),
        ("cautious_lbfgs", "SecantStore"), ("cautious_lbfgs", "SolverConfig"),
        ("cautious_lbfgs", "Space"), ("cautious_lbfgs", "minimize"), ("cautious_lbfgs", "q_factors"),
        ("cautious_lbfgs", "problems"), ("cautious_lbfgs", "solver"),
        ("cautious_lbfgs.cli", "standard_normals"), ("cautious_lbfgs.linesearch", "LineSearchError"),
    } <= set(bench_imports())


@pytest.mark.parametrize("module, name", bench_imports())
def test_bench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def solver_calls():
    """Keys of the SOLVER_CALLS dict in bench/tracing.py: names patched on ``solver``."""
    for node in ast.parse((BENCH / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SOLVER_CALLS" for t in node.targets
        ):
            return sorted(ast.literal_eval(node.value))
    return []


def test_solver_calls_are_patchable():
    names = solver_calls()
    assert len(names) == 7 and "dense_hessian_inverse" in names
    for name in names:
        assert callable(getattr(solver, name)), name


def test_patched_methods_exist():
    for cls in (Rosenbrock, PiecewiseQuadratic, OcpControlProblem):
        assert callable(cls.value) and callable(cls.value_and_grad)
    assert callable(OcpControlProblem.solve_state) and callable(OcpControlProblem.solve_adjoint)
    assert callable(SecantStore.push)
    for attr in ("inner", "check", "norm"):
        assert callable(getattr(Space, attr))
    assert callable(problems.spla.splu)


def test_problem_and_result_attributes_bench_reads():
    rosen = Rosenbrock()
    assert rosen.hessian(rosen.x_star).shape == (2, 2)
    assert rosen.f_star == 0.0
    pwquad = PiecewiseQuadratic(2)
    assert pwquad.b.shape == pwquad.x_star.shape == (6,)
    assert pwquad.mu > 0.0 and pwquad.f_star >= 0.0
    assert OcpControlProblem(OcpGrid(M=4)).grid.nu > 0.0
    fields = {f.name for f in dataclasses.fields(SolveReport)}
    assert fields >= {"status", "n_iter", "n_feval", "n_geval", "trace", "x_final",
                      "f_final", "grad_norm_final", "audits", "bound_violations"}
    assert {f.name for f in dataclasses.fields(LineSearchOutcome)} >= {"alpha", "n_feval"}
    assert LineSearchError("maxfev", "", [(1.0, 0.0)]).trials == [(1.0, 0.0)]


def test_config_fields_bench_spells_out():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {"cautious", "mode", "linesearch", "ls", "grad_tol", "max_iter",
                      "oracle_checks", "keep_iterates", "keep_storage"}
    ls_fields = {f.name for f in dataclasses.fields(LineSearchParams)}
    assert ls_fields >= {"sigma", "eta", "beta1", "beta2", "maxfev", "stpmin", "stpmax",
                         "xtol", "gll_memory"}
