"""Command-line front end: single solves, benchmark tables, the mesh
study and the random-start study, with CSV summaries and JSONL traces.

Outputs are deterministic: a fixed flag set (and seed, where one
applies) yields byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .diagnostics import q_factors
from .linesearch import LineSearchParams
from .problems import OcpControlProblem, OcpGrid, PiecewiseQuadratic, Problem, Rosenbrock
from .secant_store import CautiousParams
from .solver import SolveReport, SolverConfig, minimize

SUMMARY_COLUMNS = [
    "problem", "ls", "m", "mode", "status",
    "n_iter", "n_feval", "n_pairs", "n_unit_steps", "alpha_max", "alpha_min",
    "qf", "qf3", "qx", "qx3", "qg", "qg3",
    "f_final", "grad_norm_final",
]

TABLE2_CONFIGS = [(ls, m) for m in range(5) for ls in ("armijo", "mt")]
TABLE3_CONFIGS = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")]
TABLE4_CONFIGS = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "mt")]
TABLES = {
    "t2": ("rosenbrock", TABLE2_CONFIGS),
    "t3": ("pwquad", TABLE3_CONFIGS),
    "t4": ("ocp", TABLE4_CONFIGS),
}


def format_value(v) -> str:
    """Fixed CSV number formatting: '.' decimal, scientific below 1e-3."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.6e}"
    return f"{x:.6g}"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def emit(args, header: list[str], rows: list[list]) -> None:
    """Write the rows to ``--csv`` when given, else print them as CSV lines."""
    if args.csv:
        write_csv(args.csv, header, rows)
        return
    print(",".join(header))
    for row in rows:
        print(",".join(format_value(v) for v in row))


def write_trace(path, report: SolveReport) -> None:
    """One JSON object per iteration; storage scalars included when recorded."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, record in enumerate(report.trace):
            entry = dataclasses.asdict(record)
            if report.storage_snapshots is not None:
                entry["storage"] = report.storage_snapshots[i]
            fh.write(json.dumps(entry) + "\n")


def build_problem(args) -> tuple[Problem, np.ndarray]:
    if args.problem == "rosenbrock":
        problem = Rosenbrock()
        return problem, np.array([-1.2, 1.0])
    if args.problem == "pwquad":
        problem = PiecewiseQuadratic(args.n)
        return problem, problem.b.copy()
    if args.problem == "ocp":
        grid = OcpGrid(M=2**args.mesh_j, nu=args.nu)
        problem = OcpControlProblem(grid)
        return problem, np.zeros(problem.space.dim)
    raise ValueError(f"unknown problem {args.problem!r}")


def default_tol(problem_id: str) -> float:
    return 1e-5 if problem_id == "pwquad" else 1e-9


def build_config(args, ls: str | None = None, m: int | None = None,
                 keep_iterates: bool = True, grad_tol: float | None = None,
                 oracle_checks: str | None = None) -> SolverConfig:
    """SolverConfig from the parsed flags; keyword arguments override them.

    ``oracle_checks`` takes the flag's values: "auto", "on" or "off".
    """
    ls = args.ls if ls is None else ls
    m = args.m if m is None else m
    ls_params = LineSearchParams(
        sigma=args.sigma,
        eta=args.eta,
        beta1=args.beta,
        beta2=args.beta,
        maxfev=args.maxfev,
        stpmin=args.stpmin,
        stpmax=args.stpmax,
        xtol=args.xtol,
        gll_memory=args.gll_mem,
    )
    if grad_tol is None:
        grad_tol = args.tol if args.tol is not None else default_tol(args.problem)
    oracle_checks = args.oracle_checks if oracle_checks is None else oracle_checks
    oracle = {"auto": None, "on": True, "off": False}[oracle_checks]
    return SolverConfig(
        cautious=CautiousParams(m=m, c0=args.c0, c1=args.c1, c2=args.c2),
        mode="classical" if args.classic else "cautious",
        linesearch=ls,
        ls=ls_params,
        grad_tol=grad_tol,
        max_iter=args.max_iter,
        oracle_checks=oracle,
        keep_iterates=keep_iterates,
        keep_storage=args.trace is not None,
    )


def reference_solution(problem: Problem) -> tuple[float, np.ndarray]:
    """(f*, x*) for the Q-factor columns.

    Analytic where available; the control problem is solved from zero
    at tolerance 1e-12.
    """
    if isinstance(problem, (Rosenbrock, PiecewiseQuadratic)):
        return problem.f_star, problem.x_star
    assert isinstance(problem, OcpControlProblem)
    config = SolverConfig(
        cautious=CautiousParams(m=10),
        linesearch="armijo",
        grad_tol=1e-12,
        max_iter=500,
        oracle_checks=False,
        keep_iterates=False,
    )
    ref = minimize(problem, problem.space, np.zeros(problem.space.dim), config)
    if ref.status != "converged":
        raise RuntimeError(f"reference solve failed: {ref.status}: {ref.reason}")
    return ref.f_final, ref.x_final


def summary_row(problem_id: str, ls: str, m: int, mode: str, report: SolveReport,
                rates=None) -> list:
    q = ["", "", "", "", "", ""]
    if rates is not None:
        q = [rates.qf, rates.qf3, rates.qx, rates.qx3, rates.qg, rates.qg3]
    return [
        problem_id, ls, m, mode, report.status,
        report.n_iter, report.n_feval, report.n_pairs_stored, report.n_unit_steps,
        report.alpha_max, report.alpha_min,
        *q,
        report.f_final, report.grad_norm_final,
    ]


def run_single(args) -> int:
    problem, x0 = build_problem(args)
    config = build_config(args)
    report = minimize(problem, problem.space, x0, config)
    rates = None
    if report.status == "converged" and report.n_iter >= 1:
        f_star, x_star = reference_solution(problem)
        rates = q_factors(report, f_star, x_star, problem.space)
    emit(args, SUMMARY_COLUMNS, [summary_row(args.problem, args.ls, args.m, config.mode, report, rates)])
    if args.trace:
        write_trace(args.trace, report)
    if args.dump_grids:
        dump_grids(args, problem, report)
    return 0 if report.status == "converged" else 1


def dump_grids(args, problem: Problem, report: SolveReport) -> None:
    if not isinstance(problem, OcpControlProblem):
        raise ValueError("--dump-grids requires --problem ocp")
    out = Path(args.dump_grids)
    out.mkdir(parents=True, exist_ok=True)
    n = problem.grid.M - 1
    control = report.x_final
    state = problem.solve_state(control)
    np.savetxt(out / "target_state.csv", problem.target_state.reshape(n, n), delimiter=",")
    np.savetxt(out / "state.csv", state.reshape(n, n), delimiter=",")
    np.savetxt(out / "control.csv", control.reshape(n, n), delimiter=",")


def run_table(args) -> int:
    """One summary row per (line search, memory) configuration."""
    if args.table == "t5":
        return mesh_study(args)
    problem_id, configs = TABLES[args.table]
    args.problem = problem_id
    problem, x0 = build_problem(args)
    f_star, x_star = reference_solution(problem)
    rows = []
    for ls, m in configs:
        config = build_config(args, ls=ls, m=m)
        report = minimize(problem, problem.space, x0, config)
        rates = None
        if report.status == "converged" and report.n_iter >= 1:
            rates = q_factors(report, f_star, x_star, problem.space)
        rows.append(summary_row(problem_id, ls, m, config.mode, report, rates))
    emit(args, SUMMARY_COLUMNS, rows)
    return 0


def mesh_study(args) -> int:
    """Iteration counts of the control problem across mesh refinements.

    A cell whose run does not converge holds ``!`` and the run's status.
    """
    args.problem = "ocp"
    # a problem holds no per-run state, so each mesh is built (and A + I factored) once
    meshes = {j: OcpControlProblem(OcpGrid(M=2**j, nu=args.nu)) for j in args.mesh_list}
    rows = []
    for ls, m in TABLE4_CONFIGS:
        row: list = [ls, m]
        for j in args.mesh_list:
            problem = meshes[j]
            config = build_config(args, ls=ls, m=m, keep_iterates=False)
            report = minimize(problem, problem.space, np.zeros(problem.space.dim), config)
            row.append(report.n_iter if report.status == "converged" else f"!{report.status}")
        rows.append(row)
    emit(args, ["ls", "m"] + [f"it_j{j}" for j in args.mesh_list], rows)
    return 0


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller normals from counter-based uniform draws."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def random_start_study(args) -> int:
    """Success rate and mean iteration count over random starting points.

    Each configuration replays the same seeded stream of standard-normal
    starts, so per-config results are directly comparable.
    """
    problem = PiecewiseQuadratic(args.n)
    tol = args.tol if args.tol is not None else 1e-5
    header = ["ls", "m", "n_runs", "n_converged", "success_rate", "mean_iters"]
    rows = []
    for ls, m in TABLE3_CONFIGS:
        rng = np.random.Generator(np.random.Philox(args.seed))
        n_ok = 0
        total_iters = 0
        for _ in range(args.runs):
            x0 = standard_normals(rng, problem.space.dim)
            config = build_config(args, ls=ls, m=m, keep_iterates=False,
                                  grad_tol=tol, oracle_checks="off")
            report = minimize(problem, problem.space, x0, config)
            if report.status == "converged":
                n_ok += 1
                total_iters += report.n_iter
        mean = total_iters / n_ok if n_ok else math.nan
        rows.append([ls, m, args.runs, n_ok, n_ok / args.runs, mean])
    emit(args, header, rows)
    return 0


def load_config_file(path) -> dict:
    """Flat ``key = value`` pairs, one per line; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cautious-lbfgs",
        description="Limited-memory quasi-Newton solver with cautious pair filtering",
    )
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--problem", choices=["rosenbrock", "pwquad", "ocp"],
                        default="rosenbrock")
    parser.add_argument("--n", type=int, default=100,
                        help="number of 3-blocks of the piecewise quadratic")
    parser.add_argument("--mesh-j", type=int, default=6, dest="mesh_j",
                        help="grid exponent of the control problem (M = 2^j)")
    parser.add_argument("--nu", type=float, default=1e-3, help="control penalty weight")
    parser.add_argument("--m", type=int, default=2, help="memory size")
    parser.add_argument("--ls", choices=["armijo", "wolfe", "mt", "gll"], default="armijo")
    parser.add_argument("--gll-mem", type=int, default=10, dest="gll_mem")
    parser.add_argument("--tol", type=float, default=None,
                        help="gradient-norm tolerance (default per problem)")
    parser.add_argument("--c0", type=float, default=1e-4)
    parser.add_argument("--c1", type=float, default=1.0)
    parser.add_argument("--c2", type=float, default=None,
                        help="default 1/(2m+3)")
    parser.add_argument("--classic", action="store_true",
                        help="classical L-BFGS/BB: the same iteration at filter level 0")
    parser.add_argument("--sigma", type=float, default=1e-4, help="sufficient-decrease slope")
    parser.add_argument("--eta", type=float, default=0.9)
    parser.add_argument("--beta", type=float, default=0.5,
                        help="backtracking contraction factor")
    parser.add_argument("--maxfev", type=int, default=20)
    parser.add_argument("--stpmax", type=float, default=1000.0)
    parser.add_argument("--stpmin", type=float, default=0.0)
    parser.add_argument("--xtol", type=float, default=1e-7)
    parser.add_argument("--max-iter", type=int, default=50_000, dest="max_iter")
    parser.add_argument("--oracle-checks", choices=["auto", "on", "off"], default="auto",
                        dest="oracle_checks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="run the random-start study with this many starts per config")
    parser.add_argument("--csv", default=None, help="summary CSV path (default stdout)")
    parser.add_argument("--trace", default=None, help="JSONL trace path")
    parser.add_argument("--table", choices=["t2", "t3", "t4", "t5"], default=None)
    parser.add_argument("--mesh-list", type=int, nargs="+", default=[4, 5, 6, 7],
                        dest="mesh_list", help="grid exponents of the mesh study")
    parser.add_argument("--dump-grids", default=None, dest="dump_grids",
                        help="directory for target/state/control grid CSV dumps")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        file_values = load_config_file(args.config)
        defaults = vars(parser.parse_args([]))
        unknown = set(file_values) - set(defaults)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        # each file value is parsed as its own flag, so it gets the flag's
        # type and choices; switches (bool defaults) take a truthy word and
        # list-valued keys whitespace-separated items
        from_file = argparse.Namespace(**defaults)
        for key, value in file_values.items():
            if isinstance(defaults[key], bool):
                parsed = value.lower() in ("1", "true", "yes", "on")
            else:
                items = value.split() if isinstance(defaults[key], list) else [value]
                parsed = getattr(parser.parse_args([f"--{key.replace('_', '-')}", *items]), key)
            setattr(from_file, key, parsed)
        # explicit flags override the file
        args = parser.parse_args(argv, namespace=from_file)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.runs is not None:
        return random_start_study(args)
    if args.table is not None:
        return run_table(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
