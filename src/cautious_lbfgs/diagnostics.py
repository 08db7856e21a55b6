"""Convergence-rate diagnostics computed from solve reports.

Q-factors are the per-step error quotients of the objective values, the
iterates and the gradient norms; the "final three" variants take the
maximum over the last three quotients only.  l-step q-linear convergence
of a positive error sequence means every quotient e_{k+l}/e_k from some
index on stays below one.
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


def _quotients(errors: np.ndarray, l: int = 1) -> tuple[np.ndarray, int]:
    """Quotients e_{k+l} / e_k over the k with e_k != 0, and how many k were skipped."""
    denominators = errors[:-l]
    nonzero = denominators != 0.0
    return errors[l:][nonzero] / denominators[nonzero], int(np.count_nonzero(~nonzero))


def _x_errors(report: SolveReport, x_star, space: Space) -> np.ndarray:
    """||x_k - x_star|| along the run's iterates."""
    if report.iterates is None:
        raise ValueError("report was produced without keep_iterates")
    x_star = space.check(x_star)
    return np.array([space.norm(x - x_star) for x in report.iterates])


def error_sequences(report: SolveReport, f_star: float, x_star, space: Space):
    """(f-errors, x-errors, gradient norms) along the run, final point included."""
    return report.f_values() - f_star, _x_errors(report, x_star, space), report.grad_norms()


def q_factors(report: SolveReport, f_star: float, x_star, space: Space) -> RateReport:
    """Maximal q-factors of a run against a reference solution."""
    f_err, x_err, g_err = error_sequences(report, f_star, x_star, space)
    K = len(f_err) - 1
    if K < 1:
        raise ValueError("need at least one completed iteration")
    # every quotient, then the final three: e_k / e_{k-1} for k >= max(1, K - 2)
    maxima, n_skipped = [], 0
    for errors in (f_err, x_err, g_err):
        for start in (0, max(1, K - 2) - 1):
            q, skipped = _quotients(errors[start:])
            maxima.append(float(q.max()) if len(q) else -math.inf)
            n_skipped += skipped
    qf, qf3, qx, qx3, qg, qg3 = maxima
    return RateReport(qf=qf, qx=qx, qg=qg, qf3=qf3, qx3=qx3, qg3=qg3, n_skipped=n_skipped)


def neighborhood_entry(report: SolveReport, x_star, radius: float, space: Space) -> int:
    """First index from which every iterate stays within ``radius`` of x_star.

    This is how the local-phase start indices fed to
    :func:`linear_rate_check` are obtained from a run.  Raises when even
    the final iterate sits outside the ball.
    """
    inside = _x_errors(report, x_star, space) <= radius
    if not inside[-1]:
        raise ValueError(f"no iterate stays within radius {radius}")
    outside = np.flatnonzero(~inside)
    return int(outside[-1]) + 1 if len(outside) else 0


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
    kappa_l = float(np.max(_quotients(tail, l)[0]))
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
    x_star=None,
    space: Space | None = None,
) -> ContractionReport:
    """Audit the q-linear objective decay and the iterate error envelopes.

    The per-iteration factor is nu_k = 1 - 2*sigma*alpha_k*mu / ||H_k^{-1}||,
    with the inverse-operator norms taken from the report's norm audits
    unless supplied explicitly.  The objective check asks
    f_{k+1} - f_star <= nu_k (f_k - f_star) for every k >= k1; the
    envelope check asks ||x_{k+l} - x_star|| <= sqrt(kappa nu^l) ||x_k - x_star||
    for l = 1, ..., 5 and all k >= k1, with nu the supremum of nu_k over
    k >= k1.
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
        x_err = _x_errors(report, x_star, space)[k1:]
        nu_sup_k1 = float(np.max(nu[k1:])) if len(nu[k1:]) else math.nan
        for l in range(1, 6):
            # products, not quotients: an iterate at x_star bounds every later error by 0
            bound = math.sqrt(constants.kappa * nu_sup_k1**l) * x_err[:-l]
            envelope_ok[l] = not np.any(x_err[l:] > bound * (1.0 + 1e-12))

    return ContractionReport(
        nu_values=nu,
        nu_sup=float(np.max(nu)) if len(nu) else math.nan,
        eq_objective_fraction=fraction,
        eq_objective_all=bool(np.all(holds)),
        envelope_ok=envelope_ok,
    )
