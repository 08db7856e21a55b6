#!/usr/bin/env python3
"""Byte-identity pin: write the 20 reference CLI outputs into OUTDIR.

The files are the benchmark tables t2/t3/t4 in both modes, the t5 mesh
study, a 20-start random-start study, and JSONL traces with their
summary CSVs for three single solves in both modes.  Two trees agree
on every output when ``diff -r`` of their OUTDIRs is empty:

    PYTHONPATH=src python3 scripts/golden_outputs.py OUTDIR
"""

import sys
from pathlib import Path

from cautious_lbfgs.cli import main

TRACES = [
    ("rosenbrock", "armijo", 2),
    ("rosenbrock", "mt", 3),
    ("pwquad", "wolfe", 5),
]


def runs(out: Path):
    """(argv, files written) for each invocation."""
    for classic in (False, True):
        mode = ["--classic"] if classic else []
        suffix = "_classic" if classic else ""
        for table in ("t2", "t3", "t4"):
            path = out / f"{table}{suffix}.csv"
            yield ["--table", table, *mode, "--csv", str(path)], [path]
        for problem, ls, m in TRACES:
            stem = out / f"trace_{problem}_{ls}_m{m}{suffix}"
            csv, jsonl = stem.with_suffix(".csv"), stem.with_suffix(".jsonl")
            yield ([*mode, "--problem", problem, "--ls", ls, "--m", str(m),
                    "--csv", str(csv), "--trace", str(jsonl)], [csv, jsonl])
    path = out / "t5.csv"
    yield ["--table", "t5", "--csv", str(path)], [path]
    path = out / "runs20_seed0.csv"
    yield ["--runs", "20", "--seed", "0", "--csv", str(path)], [path]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    out = Path(sys.argv[1])
    written = []
    for argv, files in runs(out):
        main(argv)  # exit code 1 marks a run that did not converge; its output is pinned too
        written += files
    missing = [str(p) for p in written if not p.is_file()]
    if missing:
        sys.exit(f"not written: {missing}")
    print(f"wrote {len(written)} files under {out}")
