#!/usr/bin/env python3
"""Interleaved A/B timing of two source trees on the piecewise quadratic, Rosenbrock or the control problem.

Each tree's package is imported under its own name, so both share one
process and its speed drift.  ``--problem pwquad`` (the default) solves
PiecewiseQuadratic(100) at grad_tol 1e-5, armijo and wolfe at m = 0, 5,
10 and gll at m = 0, 5 (its ten-value window), in batches of 25 seeded
normal starts.  Per config it also solves its first batch's starts once
more, untimed, at grad_tol 1e-9, where armijo and wolfe end
``linesearch_failure`` from many starts at every m, so the reasons of
failing searches are compared too; it prints the statuses of those
solves.  ``--problem pwquad-audit`` solves the problem in the armijo
and wolfe configs with the norm audit on, in batches
of three starts: its b and two seeded perturbations b + 1e-6 N(0, I).
Its audits run on QR coordinates, since n = 300 > 2k.  ``--problem rosenbrock``
solves Rosenbrock from (-1.2, 1) at grad_tol 1e-9 with the norm audit on,
in the configs of ``--table t2`` (armijo and mt at m = 0..4) plus gll at
m = 0, one solve per batch.  ``--problem ocp`` solves the control
problem at M = 32 in the configs of ``--table t4`` (sigma 1e-8 for mt),
in batches of two starts: u = 0 and a control of 3 x 3 sine modes with
seeded coefficients of scale 1e-3.  Its q-factors are taken against one
reference solve per tree, the command line's (m = 10, armijo, to 1e-12),
whose f and u bits must agree between the trees.  Its evaluations must
also give the same bits in both trees off the benchmark's path:
``value_and_grad``'s f and gradient, or its NewtonError text, at the
constant control 3000 on M = 8 (the state solve damps and factors), at
the control of the state y = 4 on M = 8 (the adjoint's series stalls,
and factors or, with the target y - 1e-13, returns its partial sum),
and at seeded N(0, I) controls of scale 30 and 1e3 on M = 32.  Each
solve is timed through ``minimize`` then ``q_factors``, after one
untimed audited solve per tree, which takes the one-time costs of a
first audit, such as an import, out of every timed batch.  The trees
take turns going first, and each batch must give the same results in
both: each solve's status and reason, and the bits of x_final, the
q-factors, and every trace record's f, grad_norm, omega, gamma, alpha,
n_active, n_stored and n_feval_ls.  Each config
also runs one untimed solve per tree with ``keep_storage=True``, from
the last start of its first batch, and every trace record's storage
snapshot must give the same bits in both: each stored pair's index,
sy, ss, yy and quality, the scalars that ``SecantStore.push`` computes
from the step and gradient difference it is handed.
Prints us per iteration per config with its NEW / OLD time ratio, the
median of those ratios, and the ratio of the total times, which the
config with the most iterations can decide (``mt m=0`` on Rosenbrock).
Where the audit is on, each batch must also give every iteration's ||H||
and ||H^{-1}|| within the audit's own relative slack in both trees, and
the largest relative difference is printed:

    python3 scripts/ab_pwquad.py OLD_SRC NEW_SRC [--problem pwquad|pwquad-audit|rosenbrock|ocp]
        [--rounds 4] [--seed 1]
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

BATCH = 25
AUDIT_SLACK = 1e-9  # the relative slack of BoundReport.ok
AUDIT_PERTURBATION = 1e-6
ROSENBROCK_START = np.array([-1.2, 1.0])
OCP_M = 32
OCP_START_SCALE = 1e-3
T3_CONFIGS = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")]
T4_CONFIGS = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "mt")]
# the grad_tol of pwquad's untimed batch, the SolverConfig default
STRICT_TOL = 1e-9
# the IterationRecord fields whose bits each batch compares between the trees
RECORD_FIELDS = ("f", "grad_norm", "omega", "gamma", "alpha", "n_active", "n_stored", "n_feval_ls")


def ocp_starts(rng, problem):
    """u = 0 and a control of 3 x 3 sine modes with seeded coefficients of scale OCP_START_SCALE."""
    nodes = np.arange(1, OCP_M) / OCP_M
    coeffs = OCP_START_SCALE * rng.standard_normal(9)
    modes = [np.outer(np.sin(k * np.pi * nodes), np.sin(l * np.pi * nodes)).ravel()
             for k in (1, 2, 3) for l in (1, 2, 3)]
    return [np.zeros(problem.space.dim), sum(c * mode for c, mode in zip(coeffs, modes))]


def ocp_evaluation_cases(lib, rng):
    """(M, target state or None, u) of the control problem's evaluations off the benchmark's path."""
    y4 = np.full(49, 4.0)
    u4 = lib.OcpControlProblem(lib.OcpGrid(M=8)).laplacian @ y4 + np.exp(y4)
    seeded = [(OCP_M, None, scale * rng.standard_normal((OCP_M - 1) ** 2)) for scale in (30.0, 1e3)]
    return [(8, None, np.full(49, 3000.0)), (8, None, u4), (8, y4 - 1e-13, u4)] + seeded


def evaluation_bits(lib, cases):
    """repr(f) and the gradient's bytes of ``value_and_grad`` at each case, or its NewtonError text."""
    bits = []
    for M, target, u in cases:
        problem = lib.OcpControlProblem(lib.OcpGrid(M=M, target_state=target))
        try:
            f, grad = problem.value_and_grad(u)
            bits.append((repr(f), grad.tobytes()))
        except lib.NewtonError as err:
            bits.append(str(err))
    return bits


# name: (problem from the package, configs, grad_tol, audit, starts of one batch from rng and problem)
PROBLEMS = {
    "pwquad": (
        lambda lib: lib.PiecewiseQuadratic(100),
        T3_CONFIGS + [("gll", 0), ("gll", 5)],
        1e-5,
        False,
        lambda rng, problem: [rng.standard_normal(300) for _ in range(BATCH)],
    ),
    "pwquad-audit": (
        lambda lib: lib.PiecewiseQuadratic(100),
        T3_CONFIGS,
        1e-5,
        True,
        lambda rng, problem: [problem.b.copy()] + [
            problem.b + AUDIT_PERTURBATION * rng.standard_normal(300) for _ in range(2)],
    ),
    "rosenbrock": (
        lambda lib: lib.Rosenbrock(),
        [(ls, m) for m in range(5) for ls in ("armijo", "mt")] + [("gll", 0)],
        1e-9,
        True,
        lambda rng, problem: [ROSENBROCK_START],
    ),
    "ocp": (
        lambda lib: lib.OcpControlProblem(lib.OcpGrid(M=OCP_M)),
        T4_CONFIGS,
        1e-9,
        False,
        ocp_starts,
    ),
}


def load(src: str, alias: str):
    """The cautious_lbfgs package under ``src``, imported as ``alias``."""
    pkg = Path(src) / "cautious_lbfgs"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def solver_config(lib, name, config, keep_storage=False, grad_tol=None):
    """The package's SolverConfig of one (line search, m) config of problem ``name``.

    ``grad_tol`` replaces the problem's own where it is given.
    """
    _, _, default_tol, audit, _ = PROBLEMS[name]
    grad_tol = default_tol if grad_tol is None else grad_tol
    ls, m = config
    # More-Thuente on the control problem at sigma 1e-8, as the benchmark's
    # ocp-j5 and the mesh-independence criterion run it
    params = lib.LineSearchParams(sigma=1e-8 if name == "ocp" and ls == "mt" else 1e-4)
    return lib.SolverConfig(cautious=lib.CautiousParams(m=m), linesearch=ls, ls=params,
                            grad_tol=grad_tol, oracle_checks=audit, keep_storage=keep_storage)


def storage_bits(lib, name, config, x0, problem):
    """The reprs of every trace record's storage snapshot of one untimed solve from x0.

    The snapshot holds each stored pair's index, sy, ss, yy and quality,
    the scalars that ``push`` computes from the step it is handed.
    """
    report = lib.minimize(problem, problem.space, x0, solver_config(lib, name, config, keep_storage=True))
    return [[tuple(repr(v) for v in entry.values()) for entry in r.storage] for r in report.trace]


def batch(lib, name, config, starts, problem, reference, grad_tol=None):
    """(ns, iterations, results, (norm_h, norm_h_inv) of every audit) of one batch of solves.

    ``reference`` is the (f*, x*) of the q-factors.  Each solve's result is
    its status, its reason and the bits of its x_final, q-factors and records.
    """
    cfg = solver_config(lib, name, config, grad_tol=grad_tol)
    ns, iters, bits, norms = 0, 0, [], []
    for x0 in starts:
        t0 = time.perf_counter_ns()
        report = lib.minimize(problem, problem.space, x0, cfg)
        rates = lib.q_factors(report, *reference, problem.space)
        ns += time.perf_counter_ns() - t0
        iters += report.n_iter
        # repr round-trips a float and tells -0.0 from 0.0
        records = [tuple(repr(getattr(r, name)) for name in RECORD_FIELDS) for r in report.trace]
        bits.append((report.status, report.reason, report.x_final.tobytes(), repr(rates), records))
        norms += [(a.norm_h, a.norm_h_inv) for a in report.audits or []]
    return ns, iters, bits, np.array(norms)


def relative_differences(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old| / |old| entrywise, 0 where the two are equal (infinite norms included)."""
    with np.errstate(invalid="ignore"):
        return np.where(old == new, 0.0, np.abs(new - old) / np.abs(old))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--problem", choices=PROBLEMS, default="pwquad")
    parser.add_argument("--rounds", type=int, default=4, help="batches per config and tree")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    make_problem, configs, _, _, make_starts = PROBLEMS[args.problem]
    libs = {"old": load(args.old_src, "ab_old"), "new": load(args.new_src, "ab_new")}
    for lib in libs.values():
        rosenbrock = lib.Rosenbrock()
        batch(lib, "rosenbrock", ("armijo", 1), [ROSENBROCK_START], rosenbrock,
              (rosenbrock.f_star, rosenbrock.x_star))
    problems = {tree: make_problem(lib) for tree, lib in libs.items()}
    # analytic where the problem has it, else the command line's reference solve
    references = {tree: importlib.import_module(f"{lib.__name__}.cli").reference_solution(problems[tree])
                  for tree, lib in libs.items()}
    (f_old, x_old), (f_new, x_new) = references["old"], references["new"]
    assert (f_old, x_old.tobytes()) == (f_new, x_new.tobytes()), "reference solutions differ"
    rng = np.random.default_rng(args.seed)
    if args.problem == "ocp":
        cases = ocp_evaluation_cases(libs["old"], rng)
        assert evaluation_bits(libs["old"], cases) == evaluation_bits(libs["new"], cases), \
            "value_and_grad bits differ"
    problem = problems["old"]
    totals = {(tree, c): np.zeros(2) for tree in libs for c in configs}  # ns, iterations
    worst_audit = 0.0
    strict_statuses = Counter()
    for r in range(args.rounds):
        for i, config in enumerate(configs):
            starts = make_starts(rng, problem)
            order = ("old", "new") if (r + i) % 2 == 0 else ("new", "old")
            if r == 0:
                snapshots = [storage_bits(libs[tree], args.problem, config, starts[-1], problems[tree])
                             for tree in ("old", "new")]
                assert snapshots[0] == snapshots[1], f"storage snapshots differ: {config}"
                if args.problem == "pwquad":
                    strict = [batch(libs[tree], args.problem, config, starts, problems[tree], references[tree],
                                    grad_tol=STRICT_TOL)[2] for tree in ("old", "new")]
                    assert strict[0] == strict[1], f"results at grad_tol {STRICT_TOL} differ: {config}"
                    strict_statuses.update(status for status, *_ in strict[1])
            results = {tree: batch(libs[tree], args.problem, config, starts, problems[tree], references[tree])
                       for tree in order}
            assert results["old"][2] == results["new"][2], f"results differ: round {r}, {config}"
            old_norms, new_norms = results["old"][3], results["new"][3]
            assert old_norms.shape == new_norms.shape, f"audit counts differ: round {r}, {config}"
            diff = float(relative_differences(old_norms, new_norms).max(initial=0.0))
            assert diff <= AUDIT_SLACK, f"audits differ by {diff:.3g} relative: round {r}, {config}"
            worst_audit = max(worst_audit, diff)
            for tree, (ns, iters, _, _) in results.items():
                totals[tree, config] += (ns, iters)
    print("config,old_us_per_iter,new_us_per_iter,ratio,iters")
    ratios = []
    for ls, m in configs:
        old, new = (totals[t, (ls, m)] for t in ("old", "new"))
        ratios.append(new[0] / old[0])
        print(f"{ls} m={m},{old[0] / 1e3 / old[1]:.1f},{new[0] / 1e3 / new[1]:.1f},{ratios[-1]:.3f},{new[1]:.0f}")
    old, new = (sum(v[0] for (tree, _), v in totals.items() if tree == t) for t in ("old", "new"))
    print(f"median config time ratio new/old: {statistics.median(ratios):.3f}")
    print(f"total time ratio new/old: {new / old:.3f}")
    if PROBLEMS[args.problem][3]:
        print(f"largest relative audit difference new/old: {worst_audit:.3g}")
    if strict_statuses:
        print(f"statuses at grad_tol {STRICT_TOL} (same in both trees): {dict(sorted(strict_statuses.items()))}")

if __name__ == "__main__":
    main()
