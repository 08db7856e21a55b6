#!/usr/bin/env python3
"""Time-to-solution benchmark of the cautious L-BFGS library.

Run from the repository root:

    python3 bench/run.py --workload pwquad-starts --seed 1 --seconds 25 --trace 0

The workload is built from ``--seed``; then rounds of (configuration,
start) solves run through ``minimize`` and ``q_factors`` for about
``--seconds`` (at least one round), each solve followed by a reference
kernel that measures the machine's current speed (``reference.py``).
``--trace 0`` prints the end-to-end metrics, times in reference seconds.  ``--trace 1`` runs one
untraced and one traced round, requires both to give the same iteration
counts and bit-identical final iterates, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object; the full record, with the environment, goes to
``bench/out/``.  The library is imported from ``src/`` of the same
checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("pwquad-starts", "pwquad-audit", "ocp-j5", "rosenbrock")
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cautious_lbfgs"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: library source {PACKAGE} not found", file=sys.stderr)
        return 2
    # the BLAS reads its thread count once, when numpy first loads it
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(PACKAGE.parent))
    t0 = time.perf_counter()
    import cautious_lbfgs
    import_s = time.perf_counter() - t0
    if Path(cautious_lbfgs.__file__).resolve().parent != PACKAGE.resolve():
        print(f"bench: imported {cautious_lbfgs.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import measure

    return measure.run(args, ROOT, import_s)


if __name__ == "__main__":
    sys.exit(main())
