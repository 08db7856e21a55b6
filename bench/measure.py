"""Timed rounds of solves, the end-to-end and per-layer metrics, and the
per-run result record."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from cautious_lbfgs import minimize, q_factors
from reference import ReferenceKernel
from tracing import UNITS, Tracer, layer_metrics
from workloads import WORKLOADS, Setup, check_solve, starts_digest

SETUP_REPEATS = 3
P90_MIN_SOLVES = 100  # fewer distinct solves per round: the tail is the maximum


@dataclass
class Solve:
    task: tuple[int, int]
    ns: int
    n_iter: int = 0
    n_feval: int = 0
    n_geval: int = 0
    n_active: int = 0
    n_stored: int = 0
    x_digest: bytes | None = None  # of x_final's bits; arrays would grow with the rounds
    reasons: tuple[str, ...] = ()
    ref_ns: int = 0  # the reference kernel's time right after the solve


def solve_once(setup: Setup, task: tuple[int, int], tracer: Tracer | None = None) -> Solve:
    """One timed solve (minimize, then q_factors), checked after the clock stops."""
    ci, si = task
    problem = setup.problem
    space = problem.space
    t0 = time.perf_counter_ns()
    try:
        with tracer.solve_span() if tracer else nullcontext():
            report = minimize(problem, space, setup.starts[si], setup.solver_configs[ci])
        if report.status == "converged" and report.n_iter >= 1:
            with tracer.span("diagnostics.q_factors") if tracer else nullcontext():
                q_factors(report, setup.f_ref, setup.x_ref, space)
    except Exception as exc:  # an error escaping the library fails this solve, not the run
        return Solve(task, time.perf_counter_ns() - t0, reasons=(f"{type(exc).__name__}: {exc}",))
    ns = time.perf_counter_ns() - t0
    return Solve(
        task=task,
        ns=ns,
        n_iter=report.n_iter,
        n_feval=report.n_feval,
        n_geval=report.n_geval,
        n_active=sum(r.n_active for r in report.trace),
        n_stored=sum(r.n_stored for r in report.trace),
        x_digest=hashlib.sha256(report.x_final.tobytes()).digest(),
        reasons=tuple(check_solve(setup, task, report)),
    )


def run_round(
    setup: Setup, tracer: Tracer | None = None, kernel: ReferenceKernel | None = None
) -> list[Solve]:
    gc.collect()
    solves = []
    for i, task in enumerate(setup.tasks()):
        if tracer is not None:
            tracer.solve = i
        solve = solve_once(setup, task, tracer)
        if kernel is not None:
            solve.ref_ns = kernel.time_ns()
        solves.append(solve)
    return solves


def timed_setup(name: str, seed: int, import_s: float) -> tuple[Setup, float, list[float]]:
    """Build the workload and run one warm-up solve, SETUP_REPEATS times.

    Set-up time in wall-clock seconds is the import time plus the median
    build time; the rounds run on the last build.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup = WORKLOADS[name].build(seed)
        solve_once(setup, setup.tasks()[-1])
        times.append(time.perf_counter() - t0)
    return setup, import_s + statistics.median(times), times


def run_for(setup: Setup, seconds: float, kernel: ReferenceKernel) -> tuple[list[Solve], int]:
    """Whole rounds for about ``seconds``: a round starts while at least
    half of it, timed by the round before, fits.

    The reference kernel runs after every solve.
    """
    solves: list[Solve] = []
    rounds = 0
    now = time.perf_counter()
    deadline = now + seconds
    round_s = 0.0
    while not rounds or now + round_s / 2 < deadline:
        solves += run_round(setup, kernel=kernel)
        rounds += 1
        round_s = time.perf_counter() - now
        now += round_s
    return solves, rounds


def time_stats(per_task: list[float]) -> tuple[float, float, float, str]:
    """Solves per unit time, median, tail and the tail's statistic."""
    if len(per_task) >= P90_MIN_SOLVES:
        tail_stat, tail = "p90", statistics.quantiles(per_task, n=10, method="inclusive")[-1]
    else:
        tail_stat, tail = "max", max(per_task)
    return len(per_task) / sum(per_task), statistics.median(per_task), tail, tail_stat


def end_to_end(solves: list[Solve], setup_wall_s: float, ref_s: float) -> tuple[dict, dict, str]:
    """Metrics of a run, the same time statistics in wall-clock seconds,
    and the name of the statistic behind solve_s_tail.

    A solve's time is its ratio to the reference kernel run right after
    it, times the kernel's ``ref_s``: reference seconds.  Each distinct
    (configuration, start) pair takes the geometric mean of its ratios
    over the run's identical rounds, which spread by a factor rather
    than by an amount.  Set-up time, which has no kernel run of its own,
    is divided by the kernel's median time over the run.  The wall-clock statistics take each pair's
    median time in seconds; they are printed and recorded, not bounded.
    """
    ratios = defaultdict(list)
    walls = defaultdict(list)
    for s in solves:
        ratios[s.task].append(math.log(s.ns / s.ref_ns))
        walls[s.task].append(s.ns / 1e9)
    per_task = [ref_s * math.exp(statistics.fmean(v)) for v in ratios.values()]
    rate, p50, tail, tail_stat = time_stats(per_task)
    wall_rate, wall_p50, wall_tail, _ = time_stats([statistics.median(v) for v in walls.values()])
    kernel_s = statistics.median(s.ref_ns for s in solves) / 1e9
    failed = sum(1 for s in solves if s.reasons)
    metrics = {
        "setup_s": (ref_s * setup_wall_s / kernel_s, "s"),
        "solves_per_s": (rate, "1/ref_s"),
        "solve_s_p50": (p50, "ref_s"),
        "solve_s_tail": (tail, "ref_s"),
        "iters_per_solve": (sum(s.n_iter for s in solves) / len(solves), "iter"),
        "solved_frac": (1.0 - failed / len(solves), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = {
        "wall.setup_s": (setup_wall_s, "s"),
        "wall.solves_per_s": (wall_rate, "1/s"),
        "wall.solve_s_p50": (wall_p50, "s"),
        "wall.solve_s_tail": (wall_tail, "s"),
        "wall.ref_kernel_ms": (kernel_s * 1e3, "ms"),
    }
    return metrics, wall, tail_stat


def same_result(a: Solve, b: Solve) -> bool:
    return a.x_digest is not None and a.n_iter == b.n_iter and a.x_digest == b.x_digest


def traced_run(setup: Setup, spans_path: Path) -> tuple[list[Solve], dict, list[tuple[int, int]]]:
    """One untraced round, then the same round traced.

    Returns every solve, the per-layer metrics, and the tasks whose
    iteration count or final iterate differed between the two rounds.
    """
    plain = run_round(setup)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(setup, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    mismatched = [a.task for a, b in zip(plain, traced) if not same_result(a, b)]
    overhead = sum(s.ns for s in traced) / sum(s.ns for s in plain)
    metrics = layer_metrics(
        tracer,
        n_iter=sum(s.n_iter for s in traced),
        n_feval=sum(s.n_feval for s in traced),
        n_geval=sum(s.n_geval for s in traced),
        n_active=sum(s.n_active for s in traced),
        n_stored=sum(s.n_stored for s in traced),
        overhead=overhead,
    )
    return plain + traced, metrics, mismatched


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "seed": seed,
    }


def run(args, root: Path, import_s: float) -> int:
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workload = WORKLOADS[args.workload]

    setup, setup_s, setup_times = timed_setup(args.workload, args.seed, import_s)
    digest = starts_digest(setup.starts)
    seed_changes_starts = digest != starts_digest(workload.make_starts(setup.problem, args.seed + 1))
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, args.seed),
        "starts_digest": digest,
        "seed_changes_starts": seed_changes_starts,
        "import_s": import_s,
        "setup_times_s": setup_times,
    }

    mismatched: list[tuple[int, int]] = []
    wall: dict = {}
    if args.trace:
        solves, metrics, mismatched = traced_run(setup, out_dir / f"{stem}_spans.csv.gz")
        record["rounds"] = 1
        metrics = {name: (value, UNITS[name]) for name, value in metrics.items()}
    else:
        kernel = ReferenceKernel(workload.kernel)
        solves, record["rounds"] = run_for(setup, args.seconds, kernel)
        metrics, wall, record["tail_stat"] = end_to_end(solves, setup_s, kernel.spec.ref_s)

    def failures(s: Solve) -> list[str]:
        return list(s.reasons) + (["traced round differs"] if s.task in mismatched else [])

    failed = sum(1 for s in solves if failures(s))
    correct = failed == 0 and seed_changes_starts
    record["solves"] = [
        {
            "ls": setup.configs[s.task[0]][0],
            "m": setup.configs[s.task[0]][1],
            "start": s.task[1],
            "n_iter": s.n_iter,
            "n_feval": s.n_feval,
            "seconds": s.ns / 1e9,
            "ref_kernel_s": s.ref_ns / 1e9,
            "failures": failures(s),
        }
        for s in solves
    ]
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["wall"] = {name: {"value": v, "unit": u} for name, (v, u) in wall.items()}
    record["correct"] = correct
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in (metrics | wall).items():
        print(f"{args.workload:14s} {name:30s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'fail_frac':30s} {failed / len(solves):14.6g} ratio")
    print(f"{args.workload:14s} {len(solves)} solves, {len(setup.tasks())} distinct, {record['rounds']} round(s)"
          + ("" if args.trace else f"; solve_s_tail is solve_s_{record['tail_stat']}"))
    for row in record["solves"]:
        if row["failures"]:
            print(f"FAILED {row['ls']} m={row['m']} start {row['start']}: {'; '.join(row['failures'])}")
    print(json.dumps({"correct": correct, "attempted": len(solves), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0
