import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cautious_lbfgs import LineSearchError, LineSearchParams
from cautious_lbfgs.linesearch import (
    _trial_step,
    armijo_backtrack,
    gll_nonmonotone,
    more_thuente,
    wolfe_weak,
)

P = LineSearchParams()


def counted(fn):
    calls = []

    def wrapper(alpha):
        value = fn(alpha)
        calls.append((alpha, value))
        return value

    wrapper.calls = calls
    return wrapper


class TestParams:
    def test_defaults(self):
        assert (P.sigma, P.eta, P.beta1, P.beta2) == (1e-4, 0.9, 0.5, 0.5)
        assert (P.maxfev, P.stpmax, P.stpmin, P.xtol) == (20, 1000.0, 0.0, 1e-7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"sigma": 1.0},
            {"eta": 0.9, "sigma": 0.95},
            {"beta1": 0.0},
            {"beta1": 0.7, "beta2": 0.6},
            {"beta2": 1.0},
            {"maxfev": 0},
            {"stpmin": 2.0, "stpmax": 1.0},
            {"gll_memory": 0},
            {"xtol": math.nan},
            {"xtol": -1.0},
            {"xtol": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LineSearchParams(**kwargs)


class TestArmijo:
    def test_full_step_on_quadratic(self):
        phi = lambda a: (1 - a) ** 2
        out = armijo_backtrack(phi, 1.0, -2.0, P)
        assert out.alpha == 1.0
        assert phi(out.alpha) == 0.0
        assert out.n_feval == 1

    def test_frozen_ladder_value(self):
        # trial ladder 1, 1/2, 1/4, 1/8, 1/16 evaluated directly against
        # the sufficient-decrease inequality accepts 1/16 = 0.0625
        phi = counted(lambda a: 1.0 - a + 10.0 * a * a)
        out = armijo_backtrack(phi, 1.0, -1.0, P)
        assert out.alpha == 0.0625
        assert out.n_feval == 5
        assert [a for a, _ in phi.calls] == [1.0, 0.5, 0.25, 0.125, 0.0625]

    def test_requires_descent(self):
        with pytest.raises(ValueError):
            armijo_backtrack(lambda a: a, 0.0, 1.0, P)

    def test_maxfev_failure_carries_trials(self):
        with pytest.raises(LineSearchError) as err:
            armijo_backtrack(lambda a: 1.0 + a, 1.0, -1.0, P)
        assert err.value.reason == "maxfev"
        assert len(err.value.trials) == 20

    def test_ladder_stays_inside_contraction_window(self):
        params = LineSearchParams(beta1=0.3, beta2=0.8)
        phi = counted(lambda a: math.cosh(3 * a) - 1 - 0.5 * a)
        out = armijo_backtrack(phi, 0.0, -0.5, params)
        alphas = [a for a, _ in phi.calls]
        assert alphas[0] == 1.0
        for prev, nxt in zip(alphas, alphas[1:]):
            assert 0.3 * prev <= nxt <= 0.8 * prev
        assert out.alpha == alphas[-1]

    def test_interpolated_trials_inside_the_window(self):
        # phi = 1 - a + 6a^2 - 4a^3 on binary fractions: the quadratic through
        # phi(0), phi'(0) = -1 and phi(1) = 2 has its minimum at 1/(2 * 2) = 1/4;
        # phi(1/4) = 1.0625 fails, and the next quadratic's minimum is
        # 0.0625 / (2 * 0.3125) = 0.1.  Both lie strictly inside their windows
        # [0.1, 0.9] * 1 and [0.1, 0.9] * 1/4, so neither is clipped
        phi = counted(lambda a: 1.0 - a + 6.0 * a * a - 4.0 * a * a * a)
        out = armijo_backtrack(phi, 1.0, -1.0, LineSearchParams(beta1=0.1, beta2=0.9))
        assert [a for a, _ in phi.calls] == [1.0, 0.25, 0.1]
        assert [f for _, f in phi.calls[:2]] == [2.0, 1.0625]
        assert (out.alpha, out.n_feval) == (0.1, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fixed_factor_ladder_through_nonfinite_values(self, bad):
        # beta1 == beta2 leaves the interpolation window no width, so each
        # trial is beta times the last, whatever phi returned there
        phi = counted(lambda a: bad if a > 0.01 else 1.0 - a)
        out = armijo_backtrack(phi, 1.0, -1.0, LineSearchParams(beta1=0.3, beta2=0.3))
        ladder = [1.0]
        while ladder[-1] > 0.01:
            ladder.append(ladder[-1] * 0.3)
        assert [a for a, _ in phi.calls] == ladder
        assert out.alpha == ladder[-1]

    def test_certificate_reverifies_by_direct_evaluation(self):
        # the reference level of the Armijo rule is phi(0), taken here from
        # phi itself rather than from anything the search reports
        phi = counted(lambda a: 1.0 - a + 10.0 * a * a)
        out = armijo_backtrack(phi, phi(0.0), -1.0, P)
        # the last evaluation is at the accepted step, where a caller reads it
        assert phi.calls[-1][0] == out.alpha
        assert phi(out.alpha) <= phi(0.0) + P.sigma * out.alpha * (-1.0)


class TestGll:
    def test_memory_one_equals_armijo(self):
        phi = lambda a: 1.0 - a + 10.0 * a * a
        mono = armijo_backtrack(phi, 1.0, -1.0, P)
        nonmono = gll_nonmonotone(phi, -1.0, [1.0], P)
        assert mono.alpha == nonmono.alpha
        assert mono.n_feval == nonmono.n_feval

    def test_accepts_increase_below_history_maximum(self):
        # current value 1, older value 5: a trial value of 4 passes even
        # though it increases the objective
        history = [5.0, 1.0]
        phi = lambda a: 4.0 - 1e-6 * a
        out = gll_nonmonotone(phi, -1e-5, history, P)
        assert out.alpha == 1.0
        assert phi(out.alpha) > history[-1]

    def test_reduces_to_monotone_on_singleton_history(self):
        out = gll_nonmonotone(lambda a: 1.0 - a + 10.0 * a * a, -1.0, [1.0], P)
        assert out.alpha == 0.0625

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            gll_nonmonotone(lambda a: a, -1.0, [], P)


class TestWolfeWeak:
    def test_full_step_on_quadratic(self):
        phi = lambda a: (1 - a) ** 2
        dphi = lambda a: 2 * (a - 1)
        out = wolfe_weak(phi, dphi, P, phi0=1.0, dphi0=-2.0)
        assert out.alpha == 1.0
        assert dphi(out.alpha) >= P.eta * (-2.0)

    def test_unbounded_ray_hits_stpmax(self):
        with pytest.raises(LineSearchError) as err:
            wolfe_weak(lambda a: -a, lambda a: -1.0, P, phi0=0.0, dphi0=-1.0)
        assert err.value.reason == "stpmax"

    def test_quartic_certificate(self):
        phi = lambda a: a**4 / 4.0 - a
        dphi = lambda a: a**3 - 1.0
        out = wolfe_weak(phi, dphi, P, phi0=0.0, dphi0=-1.0)
        assert phi(out.alpha) <= 0.0 + P.sigma * out.alpha * (-1.0)
        assert dphi(out.alpha) >= P.eta * (-1.0)
        # weak curvature at an accepted step forces positive curvature
        assert out.alpha * (dphi(out.alpha) - (-1.0)) > 0.0

    def test_requires_descent(self):
        with pytest.raises(ValueError):
            wolfe_weak(lambda a: a, lambda a: 1.0, P, phi0=0.0, dphi0=1.0)


class TestMoreThuente:
    def test_exact_minimizer_accepted(self):
        phi = lambda a: 0.5 * (a - 1) ** 2
        dphi = lambda a: a - 1.0
        out = more_thuente(phi, dphi, P, phi0=0.5, dphi0=-1.0)
        assert out.alpha == 1.0
        assert out.n_feval == 1

    def test_certificate_reverifies_strong_conditions(self):
        phi = lambda a: math.exp(-a) + 0.05 * a * a
        dphi = lambda a: -math.exp(-a) + 0.1 * a
        out = more_thuente(phi, dphi, P, phi0=phi(0), dphi0=dphi(0))
        assert phi(out.alpha) <= phi(0) + P.sigma * out.alpha * dphi(0)
        assert abs(dphi(out.alpha)) <= P.eta * abs(dphi(0))

    def test_expansion_ladder(self):
        # a nearly linear slope forces the extrapolation sequence
        # 1, 5, 21, 85, 341 capped by the fourfold growth rule
        phi = counted(lambda a: -a + a * a / 2000.0)
        dphi = lambda a: -1.0 + a / 1000.0
        out = more_thuente(phi, dphi, P, phi0=0.0, dphi0=-1.0)
        alphas = [a for a, _ in phi.calls]
        assert alphas[:4] == [1.0, 5.0, 21.0, 85.0]
        assert out.alpha >= 85.0

    def test_maxfev_exhausted_on_slowly_satisfying_function(self):
        # V-shaped ray with an empty strong-curvature window: the slope
        # jumps from -1 to +0.998 at the kink so no step satisfies
        # |dphi| <= eta*|dphi0| and the sectioning budget runs out
        kink = 1.0 / math.e
        phi = counted(lambda a: -a if a < kink else -kink + 0.998 * (a - kink))
        dphi = lambda a: -1.0 if a < kink else 0.998
        params = LineSearchParams(sigma=0.4, eta=0.5, maxfev=20, xtol=1e-30)
        with pytest.raises(LineSearchError) as err:
            more_thuente(phi, dphi, params, phi0=0.0, dphi0=-1.0)
        assert err.value.reason == "maxfev"
        assert len(phi.calls) == 20
        # a five-times-larger budget still fails on float resolution,
        # so 20 evaluations genuinely cannot satisfy the conditions
        phi2 = counted(lambda a: -a if a < kink else -kink + 0.998 * (a - kink))
        params2 = LineSearchParams(sigma=0.4, eta=0.5, maxfev=100, xtol=1e-30)
        with pytest.raises(LineSearchError) as err2:
            more_thuente(phi2, dphi, params2, phi0=0.0, dphi0=-1.0)
        assert err2.value.reason == "rounding"
        assert len(phi2.calls) > 20

    def test_stpmax_clip_reported_distinctly(self):
        phi = lambda a: -a
        dphi = lambda a: -1.0
        with pytest.raises(LineSearchError) as err:
            more_thuente(phi, dphi, P, phi0=0.0, dphi0=-1.0)
        assert err.value.reason == "stpmax"

    def test_stpmin_clip_reported_distinctly(self):
        # the minimizer 0.01 lies below stpmin, so the second trial is
        # clipped to stpmin and still lacks sufficient decrease
        phi = lambda a: a * a - 0.02 * a
        dphi = lambda a: 2.0 * a - 0.02
        with pytest.raises(LineSearchError) as err:
            more_thuente(phi, dphi, LineSearchParams(stpmin=0.5), phi0=0.0, dphi0=-0.02)
        assert err.value.reason == "stpmin"
        assert [a for a, _ in err.value.trials] == [1.0, 0.5]

    def test_cubic_without_minimizer_ahead_goes_to_bracket_end(self):
        # trial 1 brackets [0, 1] with stx = 1; at trial 0.5 the slope keeps
        # dx's sign and shrinks, and the cubic through both points has no
        # minimizer toward sty = 0, so the cubic step is the bracket end 0
        # and the 0.66 safeguard sets the third trial 0.5 + 0.66 (0 - 0.5)
        phi = lambda a: -0.5
        dphi = lambda a: 1.0 if a >= 1.0 else 0.95
        with pytest.raises(LineSearchError) as err:
            more_thuente(phi, dphi, P, phi0=0.0, dphi0=-1.0)
        steps = [a for a, _ in err.value.trials]
        assert steps[:2] == [1.0, 0.5]
        assert steps[2] == pytest.approx(0.17, rel=1e-12)

    def test_unbracketed_step_behind_best_goes_to_lower_bound(self):
        # same slope sign, nondecreasing magnitude, no bracket, and the trial
        # 0.5 lies behind the best step 1: the next trial is the lower bound
        stx, fx, dx, _, _, _, stp, brackt = _trial_step(
            1.0, 0.0, -1.0, 1.0, 0.0, -1.0, 0.5, -0.1, -2.0, False, 0.1, 0.4
        )
        assert (stp, brackt) == (0.1, False)
        assert (stx, fx, dx) == (0.5, -0.1, -2.0)

    def test_xtol_reported_distinctly(self):
        kink = 1.0 / math.e
        phi = lambda a: -a if a < kink else -kink + 0.998 * (a - kink)
        dphi = lambda a: -1.0 if a < kink else 0.998
        params = LineSearchParams(sigma=0.4, eta=0.5, maxfev=1000, xtol=1e-3)
        with pytest.raises(LineSearchError) as err:
            more_thuente(phi, dphi, params, phi0=0.0, dphi0=-1.0)
        assert err.value.reason == "xtol"

    def test_requires_descent_and_step_window(self):
        with pytest.raises(ValueError):
            more_thuente(lambda a: a, lambda a: 1.0, P, phi0=0.0, dphi0=1.0)
        with pytest.raises(ValueError):
            LineSearchParams(stpmin=2.0, stpmax=3.0)

    def test_step_window_must_contain_unit_step(self):
        with pytest.raises(ValueError):
            LineSearchParams(stpmax=0.5)
        assert LineSearchParams(stpmin=1.0, stpmax=2.0).stpmin == 1.0

    def test_degenerate_interpolation_reports_rounding(self):
        # slopes reported at 3.74 times their true value shrink the bracket
        # until a cubic step divides by zero
        c0, c1, c2 = -1.8594095131400887, -2.451440748746299, 0.4610712695522783
        phi = lambda a: c0 + a * (c1 + a * c2)
        dphi = lambda a: 3.7390981292304795 * (c1 + 2.0 * c2 * a)
        params = LineSearchParams(sigma=0.45, maxfev=38)
        with pytest.raises(LineSearchError) as err:
            more_thuente(phi, dphi, params, phi0=phi(0.0), dphi0=dphi(0.0))
        assert err.value.reason == "rounding"


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.floats(1e-6, 1e6),
    st.sampled_from([(1e-4, 0.9), (1e-4, 0.1), (0.3, 0.5), (0.45, 0.451)]),
    st.integers(1, 60),
)
def test_more_thuente_returns_or_raises_line_search_error(coeffs, scale, sigma_eta, maxfev):
    # a polynomial ray whose slope is off by a constant factor, as an
    # inexact gradient gives; the search either returns or reports why not
    coeffs[1] = -abs(coeffs[1]) - 1e-3

    def phi(a):
        value = 0.0
        for c in reversed(coeffs):
            value = value * a + c
        return value

    def dphi(a):
        value = 0.0
        for i in range(len(coeffs) - 1, 0, -1):
            value = value * a + i * coeffs[i]
        return scale * value

    sigma, eta = sigma_eta
    params = LineSearchParams(sigma=sigma, eta=eta, maxfev=maxfev)
    try:
        out = more_thuente(phi, dphi, params, phi0=phi(0.0), dphi0=dphi(0.0))
    except LineSearchError:
        return
    assert out.alpha > 0.0


def _random_smooth_problem(rng):
    """Random bounded-below 1-D objective with a descent slope at zero."""
    a = rng.uniform(0.05, 2.0)
    b = rng.uniform(-1.0, 1.0)
    c = rng.uniform(0.5, 3.0)
    w = rng.uniform(0.5, 8.0)
    amp = rng.uniform(0.0, 0.4)

    def phi(t):
        return a * (t - c) ** 2 + amp * math.sin(w * t) + b * math.exp(-t)

    def dphi(t):
        return 2 * a * (t - c) + amp * w * math.cos(w * t) - b * math.exp(-t)

    return phi, dphi


@pytest.mark.parametrize("rule", ["armijo", "gll", "wolfe", "mt"])
def test_randomized_certificates(rule):
    # every accepted step re-verifies its inequalities by direct
    # evaluation, with exact comparisons, against a reference level
    # computed here: phi(0), or the history maximum for gll
    rng = np.random.default_rng(hash(rule) % 2**32)
    params = LineSearchParams(maxfev=60)
    checked = 0
    attempts = 0
    while checked < 2500 and attempts < 20000:
        attempts += 1
        phi, dphi = _random_smooth_problem(rng)
        phi0, dphi0 = phi(0.0), dphi(0.0)
        if not dphi0 < 0.0:
            continue
        reference = phi0
        try:
            if rule == "armijo":
                out = armijo_backtrack(phi, phi0, dphi0, params)
            elif rule == "gll":
                history = sorted(rng.uniform(phi0, phi0 + 2.0, size=3).tolist()) + [phi0]
                reference = max(history)
                out = gll_nonmonotone(phi, dphi0, history, params)
            elif rule == "wolfe":
                out = wolfe_weak(phi, dphi, params, phi0=phi0, dphi0=dphi0)
            else:
                out = more_thuente(phi, dphi, params, phi0=phi0, dphi0=dphi0)
        except LineSearchError:
            continue
        alpha = out.alpha
        assert alpha > 0.0
        assert phi(alpha) <= reference + params.sigma * alpha * dphi0
        if rule == "wolfe":
            assert dphi(alpha) >= params.eta * dphi0
            assert alpha * (dphi(alpha) - dphi0) > 0.0
        elif rule == "mt":
            assert abs(dphi(alpha)) <= params.eta * abs(dphi0)
            assert alpha * (dphi(alpha) - dphi0) > 0.0
        checked += 1
    assert checked == 2500


def test_searches_are_deterministic():
    phi = lambda a: math.exp(-a) + 0.05 * a * a
    dphi = lambda a: -math.exp(-a) + 0.1 * a
    first = more_thuente(phi, dphi, P, phi0=phi(0), dphi0=dphi(0))
    second = more_thuente(phi, dphi, P, phi0=phi(0), dphi0=dphi(0))
    assert first.alpha == second.alpha
    assert first.n_feval == second.n_feval
