"""Convergence-rate diagnostics computed from solve reports.

Q-factors are the per-step error quotients of the objective values, the
iterates and the gradient norms; the "final three" variants restrict the
maximum to the last three quotients.  l-step q-linear convergence of a
positive error sequence means every quotient e_{k+l}/e_k from some index
on stays below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SolveReport
from .space import Space


@dataclass(frozen=True)
class RateConstants:
    """Local strong-convexity modulus mu, gradient Lipschitz constant L,
    and the sufficient-decrease slope sigma of the line search in use.

    The constants are user-supplied per problem; kappa = L/mu is the
    local condition number.
    """

    mu: float
    L: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.L < self.mu:
            raise ValueError(f"L must be >= mu, got L={self.L}, mu={self.mu}")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")

    @property
    def kappa(self) -> float:
        return self.L / self.mu


@dataclass(frozen=True)
class RateReport:
    qf: float
    qx: float
    qg: float
    qf3: float
    qx3: float
    qg3: float
    n_skipped: int = 0
    lstep_table: dict[int, tuple[bool, float]] = field(default_factory=dict)


def _max_quotient(errors: np.ndarray, start: int = 1) -> tuple[float, int]:
    """Largest e_k / e_{k-1} for k >= start; zero denominators are skipped."""
    worst = -math.inf
    skipped = 0
    for k in range(max(start, 1), len(errors)):
        if errors[k - 1] == 0.0:
            skipped += 1
            continue
        worst = max(worst, errors[k] / errors[k - 1])
    return worst, skipped


def error_sequences(report: SolveReport, f_star: float, x_star, space: Space):
    """(f-errors, x-errors, gradient norms) along the run, final point included."""
    f_err = report.f_values() - f_star
    g_err = report.grad_norms()
    if report.iterates is None:
        raise ValueError("report was produced without keep_iterates")
    x_star = space.check(x_star)
    x_err = np.array([space.norm(x - x_star) for x in report.iterates])
    return f_err, x_err, g_err


def q_factors(report: SolveReport, f_star: float, x_star, space: Space,
              lsteps: tuple[int, ...] = ()) -> RateReport:
    """Maximal q-factors of a run against a reference solution.

    ``lsteps`` optionally adds :func:`lstep_qlinear` verdicts on the
    iterate errors to the report.
    """
    f_err, x_err, g_err = error_sequences(report, f_star, x_star, space)
    K = len(f_err) - 1
    if K < 1:
        raise ValueError("need at least one completed iteration")
    tail = max(1, K - 2)
    qf, sf = _max_quotient(f_err)
    qx, sx = _max_quotient(x_err)
    qg, sg = _max_quotient(g_err)
    qf3, tf = _max_quotient(f_err, start=tail)
    qx3, tx = _max_quotient(x_err, start=tail)
    qg3, tg = _max_quotient(g_err, start=tail)
    table = {}
    for l in lsteps:
        table[l] = lstep_qlinear(x_err, l)
    return RateReport(
        qf=qf, qx=qx, qg=qg, qf3=qf3, qx3=qx3, qg3=qg3,
        n_skipped=sf + sx + sg + tf + tx + tg,
        lstep_table=table,
    )


def neighborhood_entry(report: SolveReport, x_star, radius: float, space: Space) -> int:
    """First index from which every iterate stays within ``radius`` of x_star.

    This is how the local-phase start indices fed to
    :func:`linear_rate_check` are obtained from a run.  Raises when even
    the final iterate sits outside the ball.
    """
    if report.iterates is None:
        raise ValueError("report was produced without keep_iterates")
    x_star = space.check(x_star)
    inside = [space.norm(x - x_star) <= radius for x in report.iterates]
    entry = len(inside)
    for k in range(len(inside) - 1, -1, -1):
        if not inside[k]:
            break
        entry = k
    if entry == len(inside):
        raise ValueError(f"no iterate stays within radius {radius}")
    return entry


def lstep_qlinear(errors, l: int, k_start: int = 0) -> tuple[bool, float]:
    """Check l-step q-linear decay of a positive error sequence.

    Returns (holds, kappa_l) where kappa_l is the largest quotient
    e_{k+l} / e_k over k >= k_start and holds means kappa_l < 1.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    errors = np.asarray(errors, dtype=float)
    if len(errors) - k_start < l + 1:
        raise ValueError(
            f"need at least {l + 1} terms from k_start={k_start}, have {len(errors) - k_start}"
        )
    tail = errors[k_start:]
    if not np.all(tail > 0.0):
        raise ValueError("error sequence must be strictly positive from k_start on")
    kappa_l = float(np.max(tail[l:] / tail[:-l]))
    return kappa_l < 1.0, kappa_l


@dataclass(frozen=True)
class ContractionReport:
    """Per-iteration contraction factors and the inequalities they imply."""

    nu_values: np.ndarray
    nu_sup: float
    eq_objective_fraction: float  # share of k >= k1 with f_{k+1}-f* <= nu_k (f_k-f*)
    eq_objective_all: bool
    envelope_ok: dict[int, bool] = field(default_factory=dict)


def linear_rate_check(
    report: SolveReport,
    constants: RateConstants,
    f_star: float,
    hinv_norms=None,
    k1: int = 0,
    k2: int | None = None,
    x_star=None,
    space: Space | None = None,
    lsteps: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> ContractionReport:
    """Audit the q-linear objective decay and the iterate error envelopes.

    The per-iteration factor is nu_k = 1 - 2*sigma*alpha_k*mu / ||H_k^{-1}||,
    with the inverse-operator norms taken from the report's norm audits
    unless supplied explicitly.  The objective check asks
    f_{k+1} - f_star <= nu_k (f_k - f_star) for every k >= k1; the
    envelope check asks ||x_{k+l} - x_star|| <= sqrt(kappa nu^l) ||x_k - x_star||
    for each requested l and all k >= k2, with nu the supremum of nu_k
    over k >= k2.
    """
    if hinv_norms is None:
        if report.audits is None:
            raise ValueError("no norm audits in report; pass hinv_norms explicitly")
        hinv_norms = [a.norm_h_inv for a in report.audits]
    hinv_norms = np.asarray(hinv_norms, dtype=float)
    alphas = report.alphas()
    if len(hinv_norms) != len(alphas):
        raise ValueError(f"need one norm per iteration: {len(hinv_norms)} vs {len(alphas)}")
    nu = 1.0 - 2.0 * constants.sigma * alphas * constants.mu / hinv_norms
    f_err = report.f_values() - f_star
    holds = f_err[k1 + 1:] <= nu[k1:] * f_err[k1:-1]
    fraction = float(np.mean(holds)) if len(holds) else 1.0

    envelope_ok: dict[int, bool] = {}
    if x_star is not None and space is not None and report.iterates is not None:
        if k2 is None:
            k2 = k1
        x_star = space.check(x_star)
        x_err = np.array([space.norm(x - x_star) for x in report.iterates])
        nu_sup_k2 = float(np.max(nu[k2:])) if len(nu[k2:]) else math.nan
        for l in lsteps:
            ok = True
            for k in range(k2, len(x_err) - l):
                bound = math.sqrt(constants.kappa * nu_sup_k2**l) * x_err[k]
                if x_err[k + l] > bound * (1.0 + 1e-12):
                    ok = False
                    break
            envelope_ok[l] = ok

    return ContractionReport(
        nu_values=nu,
        nu_sup=float(np.max(nu)) if len(nu) else math.nan,
        eq_objective_fraction=fraction,
        eq_objective_all=bool(np.all(holds)),
        envelope_ok=envelope_ok,
    )
