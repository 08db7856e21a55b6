#!/usr/bin/env python3
"""Interleaved A/B timing of two source trees on the piecewise quadratic or Rosenbrock.

Each tree's package is imported under its own name, so both share one
process and its speed drift.  ``--problem pwquad`` (the default) solves
PiecewiseQuadratic(100) at grad_tol 1e-5, armijo and wolfe at m = 0, 5,
10, in batches of 25 seeded normal starts.  ``--problem rosenbrock``
solves Rosenbrock from (-1.2, 1) at grad_tol 1e-9 with the norm audit on,
in the configs of ``--table t2`` (armijo and mt at m = 0..4) plus gll at
m = 0, one solve per batch.  Each solve is timed through ``minimize``
then ``q_factors``.  The trees take turns going first, and each batch
must give the same x_final and q-factor bits in both.  Prints us per
iteration per config and the NEW / OLD ratio of the total times.  Where
the audit is on, each batch must also give every iteration's ||H|| and
||H^{-1}|| within the audit's own relative slack in both trees, and the
largest relative difference is printed:

    python3 scripts/ab_pwquad.py OLD_SRC NEW_SRC [--problem pwquad] [--rounds 4] [--seed 1]
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

BATCH = 25
AUDIT_SLACK = 1e-9  # the relative slack of BoundReport.ok
ROSENBROCK_START = np.array([-1.2, 1.0])
# name: (problem from the package, configs, grad_tol, audit, starts of one batch)
PROBLEMS = {
    "pwquad": (
        lambda lib: lib.PiecewiseQuadratic(100),
        [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")],
        1e-5,
        False,
        lambda rng: [rng.standard_normal(300) for _ in range(BATCH)],
    ),
    "rosenbrock": (
        lambda lib: lib.Rosenbrock(),
        [(ls, m) for m in range(5) for ls in ("armijo", "mt")] + [("gll", 0)],
        1e-9,
        True,
        lambda rng: [ROSENBROCK_START],
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


def batch(lib, name, config, starts):
    """(ns, iterations, result bits, (norm_h, norm_h_inv) of every audit) of one batch of solves."""
    make_problem, _, grad_tol, audit, _ = PROBLEMS[name]
    problem = make_problem(lib)
    cfg = lib.SolverConfig(cautious=lib.CautiousParams(m=config[1]), linesearch=config[0],
                           grad_tol=grad_tol, oracle_checks=audit)
    ns, iters, bits, norms = 0, 0, [], []
    for x0 in starts:
        t0 = time.perf_counter_ns()
        report = lib.minimize(problem, problem.space, x0, cfg)
        rates = lib.q_factors(report, problem.f_star, problem.x_star, problem.space)
        ns += time.perf_counter_ns() - t0
        iters += report.n_iter
        bits.append((report.x_final.tobytes(), repr(rates)))
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
    _, configs, _, _, make_starts = PROBLEMS[args.problem]
    libs = {"old": load(args.old_src, "ab_old"), "new": load(args.new_src, "ab_new")}
    rng = np.random.default_rng(args.seed)
    totals = {(tree, c): np.zeros(2) for tree in libs for c in configs}  # ns, iterations
    worst_audit = 0.0
    for r in range(args.rounds):
        for i, config in enumerate(configs):
            starts = make_starts(rng)
            order = ("old", "new") if (r + i) % 2 == 0 else ("new", "old")
            results = {tree: batch(libs[tree], args.problem, config, starts) for tree in order}
            assert results["old"][2] == results["new"][2], f"bits differ: round {r}, {config}"
            old_norms, new_norms = results["old"][3], results["new"][3]
            assert old_norms.shape == new_norms.shape, f"audit counts differ: round {r}, {config}"
            diff = float(relative_differences(old_norms, new_norms).max(initial=0.0))
            assert diff <= AUDIT_SLACK, f"audits differ by {diff:.3g} relative: round {r}, {config}"
            worst_audit = max(worst_audit, diff)
            for tree, (ns, iters, _, _) in results.items():
                totals[tree, config] += (ns, iters)
    print("config,old_us_per_iter,new_us_per_iter,iters")
    for ls, m in configs:
        old, new = (totals[t, (ls, m)] for t in ("old", "new"))
        print(f"{ls} m={m},{old[0] / 1e3 / old[1]:.1f},{new[0] / 1e3 / new[1]:.1f},{new[1]:.0f}")
    old, new = (sum(v[0] for (tree, _), v in totals.items() if tree == t) for t in ("old", "new"))
    print(f"total time ratio new/old: {new / old:.3f}")
    if PROBLEMS[args.problem][3]:
        print(f"largest relative audit difference new/old: {worst_audit:.3g}")

if __name__ == "__main__":
    main()
