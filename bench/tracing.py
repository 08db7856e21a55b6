"""Spans and call counters installed around the library's entry points
from outside the library, and removed again afterwards.

A span records name, start, end, parent span and solve index; spans stay
in memory until :meth:`Tracer.write`.  A span's self time is its
duration minus the durations of its child spans.  ``Space`` methods get
call counters only, since they run dozens of times per iteration.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from cautious_lbfgs import OcpControlProblem, PiecewiseQuadratic, Rosenbrock, SecantStore, Space
from cautious_lbfgs import problems as problems_module
from cautious_lbfgs import solver as solver_module
from cautious_lbfgs.linesearch import LineSearchError

# names ``solver`` imports, with the span name each gets
SOLVER_CALLS = {
    "two_loop": "direction.two_loop",
    "dense_hessian_inverse": "direction.dense_hessian_inverse",
    "cautious_bound_report": "direction.cautious_bound_report",
    "armijo_backtrack": "linesearch.armijo",
    "wolfe_weak": "linesearch.wolfe",
    "more_thuente": "linesearch.mt",
    "gll_nonmonotone": "linesearch.gll",
}
# fixed here, not read from the solver: the metric names must not follow the library
LINE_SEARCHES = ("armijo", "wolfe", "mt", "gll")
AUDIT_SPANS = ("direction.dense_hessian_inverse", "direction.cautious_bound_report")
# unit of every per-layer metric :func:`layer_metrics` returns
UNITS = {
    "space.inner_per_iter": "1/iter",
    "space.check_per_iter": "1/iter",
    "space.norm_per_iter": "1/iter",
    "direction.two_loop_us": "us",
    "direction.two_loop_share": "ratio",
    "direction.audit_ms": "ms",
    "direction.audit_share": "ratio",
    "secant_store.push_us": "us",
    "secant_store.accept_ratio": "ratio",
    "secant_store.active_ratio": "ratio",
    "linesearch.armijo_self_us": "us",
    "linesearch.wolfe_self_us": "us",
    "linesearch.mt_self_us": "us",
    "linesearch.gll_self_us": "us",
    "linesearch.trials_per_call": "1/call",
    "linesearch.unit_step_ratio": "ratio",
    "linesearch.failures": "count",
    "problems.value_us": "us",
    "problems.value_and_grad_us": "us",
    "problems.evals_per_iter": "1/iter",
    "problems.state_solve_ms": "ms",
    "problems.adjoint_solve_ms": "ms",
    "problems.lu_per_eval": "1/eval",
    "problems.newton_lu_per_state": "1/state",
    "problems.lu_ms": "ms",
    "problems.lu_share": "ratio",
    "solver.us_per_iter": "us",
    "solver.self_us_per_iter": "us",
    "solver.fevals_per_iter": "1/iter",
    "solver.gevals_per_iter": "1/iter",
    "diagnostics.q_factors_ms": "ms",
    "bench.trace_overhead": "ratio",
}


class _ModuleView:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent, solve, child_ns]
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.solve_calls: Counter[str] = Counter()  # counted inside solver.minimize
        self.solve = -1
        self.ls_trials = 0
        self.ls_unit_steps = 0
        self.ls_successes = 0
        self.ls_failures = 0
        self.pushes = 0
        self.pushes_stored = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.solve, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def solve_span(self):
        before = self.calls.copy()
        with self.span("solver.minimize"):
            yield
        self.solve_calls.update(self.calls - before)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(result, exc)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if observe is not None:
                    observe(None, exc)
                raise
            self._close(idx)
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for attr, name in SOLVER_CALLS.items():
            observe = self._observe_search if name.startswith("linesearch.") else None
            self._patch(solver_module, attr, self.wrap(name, getattr(solver_module, attr), observe))
        self._patch(SecantStore, "push", self.wrap("secant_store.push", SecantStore.push, self._observe_push))
        for cls in (Rosenbrock, PiecewiseQuadratic, OcpControlProblem):
            for attr in ("value", "value_and_grad"):
                self._patch(cls, attr, self.wrap(f"problems.{attr}", getattr(cls, attr)))
        for attr in ("solve_state", "solve_adjoint"):
            self._patch(OcpControlProblem, attr, self.wrap(f"problems.{attr}", getattr(OcpControlProblem, attr)))
        spla = problems_module.spla
        self._patch(problems_module, "spla", _ModuleView(spla, splu=self.wrap("problems.splu", spla.splu)))
        for attr in ("inner", "check", "norm"):
            self._patch(Space, attr, self.count(f"space.{attr}", getattr(Space, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _observe_search(self, outcome, exc) -> None:
        if isinstance(exc, LineSearchError):
            self.ls_failures += 1
            self.ls_trials += len(exc.trials)
        elif exc is None:
            self.ls_successes += 1
            self.ls_trials += outcome.n_feval
            self.ls_unit_steps += outcome.alpha == 1.0

    def _observe_push(self, stored, exc) -> None:
        if exc is None:
            self.pushes += 1
            self.pushes_stored += bool(stored)

    # -- output -------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, int, int]]:
        """span name -> (calls, total ns, self ns)."""
        acc: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for name, start, end, _, _, child in self.spans:
            entry = acc[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return {name: tuple(v) for name, v in acc.items()}

    def child_calls(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "self_ns", "parent", "solve"])
            for name, start, end, parent, solve, child in self.spans:
                writer.writerow([name, start, end, end - start - child, parent, solve])


def layer_metrics(tracer: Tracer, n_iter: int, n_feval: int, n_geval: int,
                  n_active: int, n_stored: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``n_iter``, ``n_feval`` and ``n_geval`` sum the solve reports;
    ``n_active``/``n_stored`` sum the per-iteration pair counts.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def total_ns(name):
        return totals.get(name, (0, 0, 0))[1]

    def mean(name, scale, self_time=False):
        n, total, own = totals.get(name, (0, 0, 0))
        return (own if self_time else total) / n / scale if n else 0.0

    solve_ns = total_ns("solver.minimize")
    iters = max(n_iter, 1)
    evals = calls("problems.value") + calls("problems.value_and_grad")
    audit_ns = sum(total_ns(name) for name in AUDIT_SPANS)
    audits = calls("direction.dense_hessian_inverse")
    searches = tracer.ls_successes + tracer.ls_failures
    states = calls("problems.solve_state")
    metrics = {
        "space.inner_per_iter": tracer.solve_calls["space.inner"] / iters,
        "space.check_per_iter": tracer.solve_calls["space.check"] / iters,
        "space.norm_per_iter": tracer.solve_calls["space.norm"] / iters,
        "direction.two_loop_us": mean("direction.two_loop", 1e3),
        "direction.two_loop_share": total_ns("direction.two_loop") / solve_ns,
        "direction.audit_ms": audit_ns / audits / 1e6 if audits else 0.0,
        "direction.audit_share": audit_ns / solve_ns,
        "secant_store.push_us": mean("secant_store.push", 1e3),
        "secant_store.accept_ratio": tracer.pushes_stored / tracer.pushes if tracer.pushes else 0.0,
        "secant_store.active_ratio": n_active / n_stored if n_stored else 0.0,
    }
    for ls in LINE_SEARCHES:
        metrics[f"linesearch.{ls}_self_us"] = mean(f"linesearch.{ls}", 1e3, self_time=True)
    metrics.update({
        "linesearch.trials_per_call": tracer.ls_trials / searches if searches else 0.0,
        "linesearch.unit_step_ratio": tracer.ls_unit_steps / tracer.ls_successes if tracer.ls_successes else 0.0,
        "linesearch.failures": tracer.ls_failures,
        "problems.value_us": mean("problems.value", 1e3),
        "problems.value_and_grad_us": mean("problems.value_and_grad", 1e3),
        "problems.evals_per_iter": evals / iters,
        "problems.state_solve_ms": mean("problems.solve_state", 1e6),
        "problems.adjoint_solve_ms": mean("problems.solve_adjoint", 1e6),
        "problems.lu_per_eval": calls("problems.splu") / evals if evals else 0.0,
        "problems.newton_lu_per_state": (
            tracer.child_calls("problems.splu", "problems.solve_state") / states if states else 0.0
        ),
        "problems.lu_ms": mean("problems.splu", 1e6),
        "problems.lu_share": total_ns("problems.splu") / solve_ns,
        "solver.us_per_iter": solve_ns / iters / 1e3,
        "solver.self_us_per_iter": totals.get("solver.minimize", (0, 0, 0))[2] / iters / 1e3,
        "solver.fevals_per_iter": n_feval / iters,
        "solver.gevals_per_iter": n_geval / iters,
        "diagnostics.q_factors_ms": mean("diagnostics.q_factors", 1e6),
        "bench.trace_overhead": overhead,
    })
    return metrics
