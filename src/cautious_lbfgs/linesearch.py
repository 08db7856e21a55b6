"""Step-size rules: Armijo backtracking, weak and strong Wolfe-Powell,
and the Grippo-Lampariello-Lucidi nonmonotone Armijo variant.

Every search is ``search(ray, params) -> LineSearchOutcome`` on a slice
phi(alpha) = f(x + alpha*d), and reads from ``ray`` only ``phi(alpha)``,
``dphi(alpha)``, ``phi0`` = phi(0), ``dphi0`` = phi'(0) < 0 and
``reference``, the level backtracking measures sufficient decrease
against: phi0 for Armijo, the maximum of the last few values of f for
the nonmonotone rule.  So Armijo is that rule with a one-value window,
and :func:`gll_nonmonotone` is :func:`armijo_backtrack`.  The Wolfe
rules measure decrease against phi0 and add the weak or strong
curvature condition.  The last call to phi
(and, for the Wolfe rules, dphi) before a search returns is at the
accepted step, so a caller that caches its latest evaluation holds the
accepted one.  Failures raise :class:`LineSearchError` with a distinct
``reason`` and the trial history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral


@dataclass(frozen=True)
class LineSearchParams:
    """Constants shared by the four searches.

    sigma is the sufficient-decrease slope, eta the curvature constant
    (sigma < eta < 1 for the Wolfe modes), and [beta1, beta2] the
    backtracking contraction window of the quadratic interpolation step,
    a fixed contraction factor where beta1 == beta2.
    """

    sigma: float = 1e-4
    eta: float = 0.9
    beta1: float = 0.5
    beta2: float = 0.5
    maxfev: int = 20
    stpmin: float = 0.0
    stpmax: float = 1000.0
    xtol: float = 1e-7
    gll_memory: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not self.sigma < self.eta < 1.0:
            raise ValueError(f"eta must lie in (sigma, 1), got {self.eta}")
        if not 0.0 < self.beta1 <= self.beta2 < 1.0:
            raise ValueError(f"need 0 < beta1 <= beta2 < 1, got {self.beta1}, {self.beta2}")
        if not isinstance(self.maxfev, Integral) or self.maxfev < 1:
            raise ValueError(f"maxfev must be an integer >= 1, got {self.maxfev}")
        # every search starts at step 1
        if not (0.0 <= self.stpmin <= 1.0 <= self.stpmax and self.stpmin < self.stpmax):
            raise ValueError(f"need 0 <= stpmin <= 1 <= stpmax, stpmin < stpmax; "
                             f"got {self.stpmin}, {self.stpmax}")
        if not 0.0 <= self.xtol < math.inf:
            raise ValueError(f"xtol must be finite and >= 0, got {self.xtol}")
        if not isinstance(self.gll_memory, Integral) or self.gll_memory < 1:
            raise ValueError(f"gll_memory must be an integer >= 1, got {self.gll_memory}")


@dataclass(slots=True)
class LineSearchOutcome:
    """The accepted step and the evaluations the search made; one per search."""

    alpha: float
    n_feval: int


class LineSearchError(RuntimeError):
    """Search failed; ``reason`` distinguishes the failure mode."""

    def __init__(self, reason: str, message: str, trials: list[tuple[float, float]] | None = None):
        super().__init__(f"{reason}: {message}")
        self.reason = reason
        self.trials = trials or []


def armijo_backtrack(ray, params: LineSearchParams) -> LineSearchOutcome:
    """Backtracking from alpha = 1 until phi(alpha) <= reference + sigma alpha dphi0.

    With ``ray.reference`` equal to phi0 this is the Armijo rule; with the
    maximum of the last few objective values it is the nonmonotone rule,
    :func:`gll_nonmonotone`.  Each later trial minimizes the quadratic
    through (0, phi0) with slope dphi0 and the last trial, clipped to
    [beta1, beta2] times that trial's step; with beta1 == beta2 the window
    has no width and the contraction is fixed.
    """
    phi, phi0, dphi0, reference = ray.phi, ray.phi0, ray.dphi0, ray.reference
    if not dphi0 < 0.0:
        raise ValueError(f"descent derivative required, got dphi0 = {dphi0}")
    alpha = 1.0
    trials: list[tuple[float, float]] = []
    for _ in range(params.maxfev):
        f = phi(alpha)
        trials.append((alpha, f))
        if f <= reference + params.sigma * alpha * dphi0:
            return LineSearchOutcome(alpha=alpha, n_feval=len(trials))
        denom = 2.0 * (f - phi0 - dphi0 * alpha)
        trial = -dphi0 * alpha * alpha / denom if denom > 0.0 else math.inf
        if not math.isfinite(trial):
            trial = params.beta2 * alpha
        alpha = min(max(trial, params.beta1 * alpha), params.beta2 * alpha)
    raise LineSearchError(
        "maxfev",
        f"no sufficient decrease within {params.maxfev} trials",
        trials,
    )


# the nonmonotone rule is the same backtracking; its ray's reference is the window maximum
gll_nonmonotone = armijo_backtrack


def wolfe_weak(ray, params: LineSearchParams) -> LineSearchOutcome:
    """Bracketing/bisection search for the weak Wolfe-Powell conditions.

    Doubles the step while decrease holds but curvature fails, halves the
    bracket otherwise.  An accepted step satisfies both the
    sufficient-decrease and the weak curvature inequality, which forces
    positive curvature inner(s, y) > 0 of the resulting pair.
    """
    phi, dphi, phi0, dphi0 = ray.phi, ray.dphi, ray.phi0, ray.dphi0
    if not dphi0 < 0.0:
        raise ValueError(f"descent derivative required, got dphi0 = {dphi0}")
    lo, hi = 0.0, math.inf
    alpha = 1.0
    trials: list[tuple[float, float]] = []
    while len(trials) < params.maxfev:
        f = phi(alpha)
        trials.append((alpha, f))
        if not (f <= phi0 + params.sigma * alpha * dphi0):
            hi = alpha
        elif dphi(alpha) >= params.eta * dphi0:
            return LineSearchOutcome(alpha=alpha, n_feval=len(trials))
        else:
            lo = alpha
        if math.isinf(hi):
            alpha = 2.0 * alpha
            if alpha > params.stpmax:
                raise LineSearchError(
                    "stpmax",
                    f"bracket expansion exceeded stpmax = {params.stpmax}",
                    trials,
                )
        else:
            alpha = 0.5 * (lo + hi)
    raise LineSearchError(
        "maxfev", f"no weak Wolfe point within {params.maxfev} trials", trials
    )


def more_thuente(ray, params: LineSearchParams) -> LineSearchOutcome:
    """More-Thuente search for the strong Wolfe-Powell conditions.

    Sectioning with cubic/quadratic interpolation over a shrinking
    interval of uncertainty, using the modified-function stage until a
    point of sufficient decrease with nonnegative slope is found.  The
    first trial step is 1.  Distinct failure reasons: ``maxfev``,
    ``xtol`` (bracket narrower than the relative tolerance without
    satisfaction), ``stpmax`` / ``stpmin`` (step clipped at the bounds),
    and ``rounding``.
    """
    phi, dphi, phi0, dphi0 = ray.phi, ray.dphi, ray.phi0, ray.dphi0
    if not dphi0 < 0.0:
        raise ValueError(f"descent derivative required, got dphi0 = {dphi0}")

    xtrapl, xtrapu = 1.1, 4.0
    sigma, eta = params.sigma, params.eta
    gtest = sigma * dphi0
    brackt = False
    stage = 1
    width = params.stpmax - params.stpmin
    width1 = 2.0 * width

    stx, fx, gx = 0.0, phi0, dphi0
    sty, fy, gy = 0.0, phi0, dphi0
    stp = 1.0
    stmin, stmax = 0.0, stp + xtrapu * stp

    trials: list[tuple[float, float]] = []
    while True:
        f = phi(stp)
        g = dphi(stp)
        trials.append((stp, f))
        if not (math.isfinite(f) and math.isfinite(g)):
            raise LineSearchError("nonfinite", f"phi({stp}) = {f}, dphi = {g}", trials)

        ftest = phi0 + stp * gtest
        if stage == 1 and f <= ftest and g >= 0.0:
            stage = 2

        if f <= ftest and abs(g) <= eta * (-dphi0):
            return LineSearchOutcome(alpha=stp, n_feval=len(trials))
        # failure checks in decreasing priority, so a step pinned at a
        # bound or an exhausted bracket is reported as such even when the
        # weaker rounding condition also holds
        if stp == params.stpmin and (f > ftest or g >= gtest):
            raise LineSearchError("stpmin", f"step clipped at stpmin = {params.stpmin}", trials)
        if stp == params.stpmax and f <= ftest and g <= gtest:
            raise LineSearchError("stpmax", f"step clipped at stpmax = {params.stpmax}", trials)
        if brackt and stmax - stmin <= params.xtol * stmax:
            raise LineSearchError(
                "xtol", f"bracket width below xtol = {params.xtol} without satisfaction", trials
            )
        if brackt and (stp <= stmin or stp >= stmax):
            raise LineSearchError(
                "rounding", "rounding errors prevent further progress", trials
            )
        if len(trials) >= params.maxfev:
            raise LineSearchError(
                "maxfev", f"no strong Wolfe point within {params.maxfev} trials", trials
            )

        try:
            if stage == 1 and f <= fx and f > ftest:
                # work on the modified function psi(a) = phi(a) - phi(0) - sigma*dphi0*a.
                # psi(stx) <= 0 < psi(stp) gives fm > fxm in exact arithmetic,
                # but within an ulp or two of phi(0) the two can tie after
                # rounding; _trial_step then leaves its first case and reads
                # the far endpoint, which is why that is converted too
                fm, gm = f - stp * gtest, g - gtest
                fxm, gxm = fx - stx * gtest, gx - gtest
                fym, gym = fy - sty * gtest, gy - gtest
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _trial_step(
                    stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax
                )
                fx, gx = fxm + stx * gtest, gxm + gtest
                fy, gy = fym + sty * gtest, gym + gtest
            else:
                stx, fx, gx, sty, fy, gy, stp, brackt = _trial_step(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
                )
        except ZeroDivisionError:
            # coincident steps or slopes leave the interpolation undefined
            raise LineSearchError("rounding", "interpolation undefined", trials) from None

        if brackt:
            # force a decrease of the interval of uncertainty
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin = stp + xtrapl * (stp - stx)
            stmax = stp + xtrapu * (stp - stx)
        stp = min(max(stp, params.stpmin), params.stpmax)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= params.xtol * stmax):
            stp = stx


def _cubic(fa, fb, sa, sb, da, db):
    """theta and gamma of the cubic interpolating (sa, fa, da) and (sb, fb, db).

    theta = 3 (fa - fb)/(sb - sa) + da + db and gamma = sqrt(theta^2 - da db),
    whose sign the caller sets.  The root's terms are scaled by their largest
    modulus against overflow, and a negative discriminant, which only
    rounding produces, is clipped to 0.
    """
    theta = 3.0 * (fa - fb) / (sb - sa) + da + db
    s = max(abs(theta), abs(da), abs(db))
    return theta, s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))


def _cubic_minimizer(theta, gamma, sa, da, sb, db):
    """Minimizer of the cubic through slopes da at sa and db at sb.

    theta and gamma are :func:`_cubic`'s for the same two points; gamma
    takes the sign of sb - sa here.
    """
    if sb < sa:
        gamma = -gamma
    p = (gamma - da) + theta
    q = ((gamma - da) + gamma) + db
    return sa + (p / q) * (sb - sa)


def _secant_step(sa, da, sb, db):
    """Zero of the secant through the slopes da at sa and db at sb."""
    return sa + (da / (da - db)) * (sb - sa)


def _trial_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One interval update of the sectioning scheme.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other
    endpoint, and (stp, fp, dp) the current trial.  Returns the updated
    endpoints, the next trial step and the bracketing flag.  Four cases,
    distinguished by the function values and derivative signs, combine a
    cubic and a quadratic (secant) candidate step.
    """
    sgnd = dp * math.copysign(1.0, dx)

    if fp > fx:
        # higher value: the minimum is bracketed between stx and stp
        stpc = _cubic_minimizer(*_cubic(fx, fp, stx, stp, dx, dp), stx, dx, stp, dp)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # opposite slope signs: bracketed between stp and stx
        stpc = _cubic_minimizer(*_cubic(fx, fp, stx, stp, dx, dp), stp, dp, stx, dx)
        stpq = _secant_step(stp, dp, stx, dx)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # same sign, decreasing magnitude: cubic may have no minimizer ahead
        theta, gamma = _cubic(fx, fp, stx, stp, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = _secant_step(stp, dp, stx, dx)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # same sign, nondecreasing magnitude
        stpf = _cubic_minimizer(*_cubic(fp, fy, stp, sty, dy, dp), stp, dp, sty, dy)
    else:
        # unbracketed, more_thuente has stp >= stx, and stpmin == stpmax at stp == stx
        stpf = stpmax

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp

    return stx, fx, dx, sty, fy, dy, stpf, brackt
