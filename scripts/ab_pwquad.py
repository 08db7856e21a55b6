#!/usr/bin/env python3
"""Interleaved A/B timing of two source trees on one of the benchmark's workloads.

Each tree's package is imported under its own name, so both share one
process and its speed drift, and ``bench/workloads.py`` is executed
against each tree's package: every batch solves that tree's
``WORKLOADS[name].build(seed)``, its problem, configs, starts, reference
and audit setting, so the script times the solves that ``bench/run.py
--workload NAME --seed SEED`` times.  A round solves every config from
every start of the workload.  Both trees must build the same starts and
the same reference f and x bits.  ``--workload pwquad-starts`` also runs
gll at m = 0 and 5 (its ten-value window), and per config it solves the
starts once more, untimed, at grad_tol 1e-9, where armijo and wolfe end
``linesearch_failure`` from many starts at every m, so the reasons of
failing searches are compared too; it prints the statuses of those
solves.  ``--workload ocp-j5`` also requires the control problem's
evaluations to give the same bits in both trees off the benchmark's
path: ``value_and_grad``'s f and gradient, or its NewtonError text, at
the constant control 3000 on M = 8 (the state solve damps and factors),
at the control of the state y = 4 on M = 8 (the adjoint's series
stalls, and factors or, with the target y - 1e-13, returns its partial
sum), and at seeded N(0, I) controls of scale 30 and 1e3 on the
workload's grid.  Each solve is timed through ``minimize`` then
``q_factors``.  The trees take turns going first, and each batch must
give the same results in both: each solve's status and reason, and the
bits of x_final, the q-factors, and every trace record's f, grad_norm,
omega, gamma, alpha, n_active, n_stored and n_feval_ls.  In the first
round each config also runs, before its timed batch, one untimed solve
per tree with ``keep_storage=True`` from the workload's last start, and
every trace record's storage snapshot must give the same bits in both:
each stored pair's index, sy, ss, yy and quality, the scalars that
``SecantStore.push`` computes from the step and gradient difference it
is handed.  That solve also takes the one-time costs of a first solve or
audit, such as an import, out of every timed batch.
Prints us per iteration per config with its NEW / OLD time ratio and the
iterations each tree timed, the median of those ratios, and the ratio of
the total times, which the config with the most iterations can decide
(``mt m=0`` on Rosenbrock).  Where the audit is on, each batch must also
give every iteration's ||H|| and ||H^{-1}|| within the audit's own
relative slack in both trees, and the largest relative difference is
printed:

    python3 scripts/ab_pwquad.py OLD_SRC NEW_SRC
        [--workload pwquad-starts|pwquad-audit|ocp-j5|rosenbrock] [--rounds 4] [--seed 1]
"""

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
AUDIT_SLACK = 1e-9  # the relative slack of BoundReport.ok
# the grad_tol of pwquad-starts' untimed batch, the SolverConfig default
STRICT_TOL = 1e-9
# the IterationRecord fields whose bits each batch compares between the trees
RECORD_FIELDS = ("f", "grad_norm", "omega", "gamma", "alpha", "n_active", "n_stored", "n_feval_ls")


def load(src: str, alias: str):
    """(the cautious_lbfgs package under ``src`` imported as ``alias``, bench/workloads.py run against it).

    While bench/workloads.py runs, ``cautious_lbfgs`` and ``cautious_lbfgs.cli``
    in ``sys.modules`` are the tree's package and its cli, so no second copy
    of a module is imported, and the module is registered as
    ``alias + "_workloads"``, where ``@dataclass`` looks it up.  Those
    entries of ``sys.modules`` are restored afterwards.
    """
    pkg = Path(src) / "cautious_lbfgs"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[alias] = lib
    spec.loader.exec_module(lib)
    spec = importlib.util.spec_from_file_location(f"{alias}_workloads", WORKLOADS_FILE)
    workloads = importlib.util.module_from_spec(spec)
    aliases = {"cautious_lbfgs": lib, "cautious_lbfgs.cli": importlib.import_module(f"{alias}.cli"),
               spec.name: workloads}
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        spec.loader.exec_module(workloads)
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    return lib, workloads


def timed_configs(workloads, setup, name):
    """[((line search, m), SolverConfig)] of every timed config: the workload's, on pwquad-starts also gll m = 0, 5."""
    configs = list(zip(setup.configs, setup.solver_configs))
    if name == "pwquad-starts":
        tol = setup.solver_configs[0].grad_tol
        configs += [(("gll", m), workloads.solver_config("gll", m, tol, setup.audit)) for m in (0, 5)]
    return configs


def ocp_evaluation_cases(lib, rng, M):
    """(M, target state or None, u) of the control problem's evaluations off the benchmark's path."""
    y4 = np.full(49, 4.0)
    u4 = lib.OcpControlProblem(lib.OcpGrid(M=8)).laplacian @ y4 + np.exp(y4)
    seeded = [(M, None, scale * rng.standard_normal((M - 1) ** 2)) for scale in (30.0, 1e3)]
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


def storage_bits(lib, setup, config):
    """The reprs of every trace record's storage snapshot of one untimed solve from the last start.

    The snapshot holds each stored pair's index, sy, ss, yy and quality,
    the scalars that ``push`` computes from the step it is handed.
    """
    problem = setup.problem
    report = lib.minimize(problem, problem.space, setup.starts[-1], dataclasses.replace(config, keep_storage=True))
    return [[tuple(repr(v) for v in entry.values()) for entry in r.storage] for r in report.trace]


def batch(lib, setup, config):
    """(ns, iterations, results, (norm_h, norm_h_inv) of every audit) of the solves from every start.

    Each solve's result is its status, its reason and the bits of its
    x_final, q-factors against the setup's reference, and records.
    """
    problem = setup.problem
    ns, iters, bits, norms = 0, 0, [], []
    for x0 in setup.starts:
        t0 = time.perf_counter_ns()
        report = lib.minimize(problem, problem.space, x0, config)
        rates = lib.q_factors(report, setup.f_ref, setup.x_ref, problem.space)
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
    parser.add_argument("--workload", default="pwquad-starts", help="a workload of bench/workloads.py")
    parser.add_argument("--rounds", type=int, default=4, help="rounds per config and tree")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    libs, workloads = {}, {}
    for tree, src in (("old", args.old_src), ("new", args.new_src)):
        libs[tree], workloads[tree] = load(src, f"ab_{tree}")
    if args.workload not in workloads["new"].WORKLOADS:
        parser.error(f"argument --workload: invalid choice: {args.workload!r} "
                     f"(choose from {', '.join(workloads['new'].WORKLOADS)})")
    setups = {tree: module.WORKLOADS[args.workload].build(args.seed) for tree, module in workloads.items()}
    configs = {tree: timed_configs(module, setups[tree], args.workload) for tree, module in workloads.items()}
    old, new = setups["old"], setups["new"]
    assert (old.f_ref, old.x_ref.tobytes()) == (new.f_ref, new.x_ref.tobytes()), "reference solutions differ"
    assert workloads["old"].starts_digest(old.starts) == workloads["new"].starts_digest(new.starts), "starts differ"
    if args.workload == "ocp-j5":
        cases = ocp_evaluation_cases(libs["old"], np.random.default_rng(args.seed), old.problem.grid.M)
        assert evaluation_bits(libs["old"], cases) == evaluation_bits(libs["new"], cases), \
            "value_and_grad bits differ"
    labels = [label for label, _ in configs["new"]]
    totals = {(tree, label): np.zeros(2) for tree in libs for label in labels}  # ns, iterations
    worst_audit = 0.0
    strict_statuses = Counter()
    for r in range(args.rounds):
        for i, label in enumerate(labels):
            order = ("old", "new") if (r + i) % 2 == 0 else ("new", "old")
            if r == 0:
                snapshots = [storage_bits(libs[tree], setups[tree], configs[tree][i][1]) for tree in ("old", "new")]
                assert snapshots[0] == snapshots[1], f"storage snapshots differ: {label}"
                if args.workload == "pwquad-starts":
                    strict = [batch(libs[tree], setups[tree],
                                    workloads[tree].solver_config(*label, STRICT_TOL, setups[tree].audit))[2]
                              for tree in ("old", "new")]
                    assert strict[0] == strict[1], f"results at grad_tol {STRICT_TOL} differ: {label}"
                    strict_statuses.update(status for status, *_ in strict[1])
            results = {tree: batch(libs[tree], setups[tree], configs[tree][i][1]) for tree in order}
            assert results["old"][2] == results["new"][2], f"results differ: round {r}, {label}"
            old_norms, new_norms = results["old"][3], results["new"][3]
            assert old_norms.shape == new_norms.shape, f"audit counts differ: round {r}, {label}"
            diff = float(relative_differences(old_norms, new_norms).max(initial=0.0))
            assert diff <= AUDIT_SLACK, f"audits differ by {diff:.3g} relative: round {r}, {label}"
            worst_audit = max(worst_audit, diff)
            for tree, (ns, iters, _, _) in results.items():
                totals[tree, label] += (ns, iters)
    print("config,old_us_per_iter,new_us_per_iter,ratio,iters")
    ratios = []
    for ls, m in labels:
        old, new = (totals[t, (ls, m)] for t in ("old", "new"))
        ratios.append(new[0] / old[0])
        print(f"{ls} m={m},{old[0] / 1e3 / old[1]:.1f},{new[0] / 1e3 / new[1]:.1f},{ratios[-1]:.3f},{new[1]:.0f}")
    old, new = (sum(v[0] for (tree, _), v in totals.items() if tree == t) for t in ("old", "new"))
    print(f"median config time ratio new/old: {statistics.median(ratios):.3f}")
    print(f"total time ratio new/old: {new / old:.3f}")
    if setups["new"].audit:
        print(f"largest relative audit difference new/old: {worst_audit:.3g}")
    if strict_statuses:
        print(f"statuses at grad_tol {STRICT_TOL} (same in both trees): {dict(sorted(strict_statuses.items()))}")

if __name__ == "__main__":
    main()
