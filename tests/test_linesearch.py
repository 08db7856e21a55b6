import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

# scipy's private port of MINPACK-2's dcsrch/dcstep, the routines more_thuente
# ports too; only the tests import it (CI pins scipy)
from scipy.optimize._dcsrch import DCSRCH, dcstep

from cautious_lbfgs import LineSearchError, LineSearchParams, linesearch
from cautious_lbfgs.linesearch import (
    _trial_step,
    armijo_backtrack,
    gll_nonmonotone,
    more_thuente,
    wolfe_weak,
)
from cautious_lbfgs.solver import SEARCH_NAMES

P = LineSearchParams()


class Ray:
    """What a search reads of its ray, from plain functions of the step.

    phi0 and dphi0 default to phi(0) and dphi(0), and reference, the level
    backtracking measures sufficient decrease against, to phi0.
    """

    def __init__(self, phi, dphi=None, phi0=None, dphi0=None, reference=None):
        self.phi, self.dphi = phi, dphi
        self.phi0 = phi(0.0) if phi0 is None else phi0
        self.dphi0 = dphi(0.0) if dphi0 is None else dphi0
        self.reference = self.phi0 if reference is None else reference


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
        out = armijo_backtrack(Ray(phi, phi0=1.0, dphi0=-2.0), P)
        assert out.alpha == 1.0
        assert phi(out.alpha) == 0.0
        assert out.n_feval == 1

    def test_frozen_ladder_value(self):
        # trial ladder 1, 1/2, 1/4, 1/8, 1/16 evaluated directly against
        # the sufficient-decrease inequality accepts 1/16 = 0.0625
        phi = counted(lambda a: 1.0 - a + 10.0 * a * a)
        out = armijo_backtrack(Ray(phi, phi0=1.0, dphi0=-1.0), P)
        assert out.alpha == 0.0625
        assert out.n_feval == 5
        assert [a for a, _ in phi.calls] == [1.0, 0.5, 0.25, 0.125, 0.0625]

    def test_requires_descent(self):
        with pytest.raises(ValueError):
            armijo_backtrack(Ray(lambda a: a, phi0=0.0, dphi0=1.0), P)

    def test_maxfev_failure_carries_trials(self):
        with pytest.raises(LineSearchError) as err:
            armijo_backtrack(Ray(lambda a: 1.0 + a, phi0=1.0, dphi0=-1.0), P)
        assert err.value.reason == "maxfev"
        assert len(err.value.trials) == 20

    def test_ladder_stays_inside_contraction_window(self):
        params = LineSearchParams(beta1=0.3, beta2=0.8)
        phi = counted(lambda a: math.cosh(3 * a) - 1 - 0.5 * a)
        out = armijo_backtrack(Ray(phi, phi0=0.0, dphi0=-0.5), params)
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
        out = armijo_backtrack(Ray(phi, phi0=1.0, dphi0=-1.0), LineSearchParams(beta1=0.1, beta2=0.9))
        assert [a for a, _ in phi.calls] == [1.0, 0.25, 0.1]
        assert [f for _, f in phi.calls[:2]] == [2.0, 1.0625]
        assert (out.alpha, out.n_feval) == (0.1, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fixed_factor_ladder_through_nonfinite_values(self, bad):
        # beta1 == beta2 leaves the interpolation window no width, so each
        # trial is beta times the last, whatever phi returned there
        phi = counted(lambda a: bad if a > 0.01 else 1.0 - a)
        out = armijo_backtrack(Ray(phi, phi0=1.0, dphi0=-1.0), LineSearchParams(beta1=0.3, beta2=0.3))
        ladder = [1.0]
        while ladder[-1] > 0.01:
            ladder.append(ladder[-1] * 0.3)
        assert [a for a, _ in phi.calls] == ladder
        assert out.alpha == ladder[-1]

    def test_certificate_reverifies_by_direct_evaluation(self):
        # the reference level of the Armijo rule is phi(0), taken here from
        # phi itself rather than from anything the search reports
        phi = counted(lambda a: 1.0 - a + 10.0 * a * a)
        out = armijo_backtrack(Ray(phi, phi0=phi(0.0), dphi0=-1.0), P)
        # the last evaluation is at the accepted step, where a caller reads it
        assert phi.calls[-1][0] == out.alpha
        assert phi(out.alpha) <= phi(0.0) + P.sigma * out.alpha * (-1.0)


class TestGll:
    def test_is_armijo_with_the_window_maximum_as_reference(self):
        assert gll_nonmonotone is armijo_backtrack

    def test_accepts_increase_below_history_maximum(self):
        # current value 1, older value 5: a trial value of 4 passes even
        # though it increases the objective
        phi = lambda a: 4.0 - 1e-6 * a
        out = gll_nonmonotone(Ray(phi, phi0=1.0, dphi0=-1e-5, reference=5.0), P)
        assert out.alpha == 1.0
        assert phi(out.alpha) > 1.0

    def test_reduces_to_monotone_on_singleton_history(self):
        out = gll_nonmonotone(Ray(lambda a: 1.0 - a + 10.0 * a * a, phi0=1.0, dphi0=-1.0), P)
        assert out.alpha == 0.0625


class TestWolfeWeak:
    def test_full_step_on_quadratic(self):
        phi = lambda a: (1 - a) ** 2
        dphi = lambda a: 2 * (a - 1)
        out = wolfe_weak(Ray(phi, dphi, phi0=1.0, dphi0=-2.0), P)
        assert out.alpha == 1.0
        assert dphi(out.alpha) >= P.eta * (-2.0)

    def test_unbounded_ray_hits_stpmax(self):
        with pytest.raises(LineSearchError) as err:
            wolfe_weak(Ray(lambda a: -a, lambda a: -1.0, phi0=0.0, dphi0=-1.0), P)
        assert err.value.reason == "stpmax"

    def test_quartic_certificate(self):
        phi = lambda a: a**4 / 4.0 - a
        dphi = lambda a: a**3 - 1.0
        out = wolfe_weak(Ray(phi, dphi, phi0=0.0, dphi0=-1.0), P)
        assert phi(out.alpha) <= 0.0 + P.sigma * out.alpha * (-1.0)
        assert dphi(out.alpha) >= P.eta * (-1.0)
        # weak curvature at an accepted step forces positive curvature
        assert out.alpha * (dphi(out.alpha) - (-1.0)) > 0.0

    def test_requires_descent(self):
        with pytest.raises(ValueError):
            wolfe_weak(Ray(lambda a: a, lambda a: 1.0, phi0=0.0, dphi0=1.0), P)


class TestMoreThuente:
    def test_exact_minimizer_accepted(self):
        phi = lambda a: 0.5 * (a - 1) ** 2
        dphi = lambda a: a - 1.0
        out = more_thuente(Ray(phi, dphi, phi0=0.5, dphi0=-1.0), P)
        assert out.alpha == 1.0
        assert out.n_feval == 1

    def test_certificate_reverifies_strong_conditions(self):
        phi = lambda a: math.exp(-a) + 0.05 * a * a
        dphi = lambda a: -math.exp(-a) + 0.1 * a
        out = more_thuente(Ray(phi, dphi), P)
        assert phi(out.alpha) <= phi(0) + P.sigma * out.alpha * dphi(0)
        assert abs(dphi(out.alpha)) <= P.eta * abs(dphi(0))

    def test_expansion_ladder(self):
        # a nearly linear slope forces the extrapolation sequence
        # 1, 5, 21, 85, 341 capped by the fourfold growth rule
        phi = counted(lambda a: -a + a * a / 2000.0)
        dphi = lambda a: -1.0 + a / 1000.0
        out = more_thuente(Ray(phi, dphi, phi0=0.0, dphi0=-1.0), P)
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
            more_thuente(Ray(phi, dphi, phi0=0.0, dphi0=-1.0), params)
        assert err.value.reason == "maxfev"
        assert len(phi.calls) == 20
        # a five-times-larger budget still fails on float resolution,
        # so 20 evaluations genuinely cannot satisfy the conditions
        phi2 = counted(lambda a: -a if a < kink else -kink + 0.998 * (a - kink))
        params2 = LineSearchParams(sigma=0.4, eta=0.5, maxfev=100, xtol=1e-30)
        with pytest.raises(LineSearchError) as err2:
            more_thuente(Ray(phi2, dphi, phi0=0.0, dphi0=-1.0), params2)
        assert err2.value.reason == "rounding"
        assert len(phi2.calls) > 20

    def test_stpmax_clip_reported_distinctly(self):
        phi = lambda a: -a
        dphi = lambda a: -1.0
        with pytest.raises(LineSearchError) as err:
            more_thuente(Ray(phi, dphi, phi0=0.0, dphi0=-1.0), P)
        assert err.value.reason == "stpmax"

    def test_stpmin_clip_reported_distinctly(self):
        # the minimizer 0.01 lies below stpmin, so the second trial is
        # clipped to stpmin and still lacks sufficient decrease
        phi = lambda a: a * a - 0.02 * a
        dphi = lambda a: 2.0 * a - 0.02
        with pytest.raises(LineSearchError) as err:
            more_thuente(Ray(phi, dphi, phi0=0.0, dphi0=-0.02), LineSearchParams(stpmin=0.5))
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
            more_thuente(Ray(phi, dphi, phi0=0.0, dphi0=-1.0), P)
        steps = [a for a, _ in err.value.trials]
        assert steps[:2] == [1.0, 0.5]
        assert steps[2] == pytest.approx(0.17, rel=1e-12)

    def test_unbracketed_step_at_best_stays_put(self):
        # same slope sign, nondecreasing magnitude, no bracket, and the trial
        # at the best step, where more_thuente passes stpmin == stpmax == stp:
        # the next trial is that step, as in dcstep
        args = (2.0, -1.0, -0.5, 0.0, 0.0, -1.0, 2.0, -1.0, -0.5, False, 2.0, 2.0)
        assert _trial_step(*args) == (2.0, -1.0, -0.5, 0.0, 0.0, -1.0, 2.0, False)
        assert _trial_step(*args) == dcstep(*args)

    def test_xtol_reported_distinctly(self):
        kink = 1.0 / math.e
        phi = lambda a: -a if a < kink else -kink + 0.998 * (a - kink)
        dphi = lambda a: -1.0 if a < kink else 0.998
        params = LineSearchParams(sigma=0.4, eta=0.5, maxfev=1000, xtol=1e-3)
        with pytest.raises(LineSearchError) as err:
            more_thuente(Ray(phi, dphi, phi0=0.0, dphi0=-1.0), params)
        assert err.value.reason == "xtol"

    def test_requires_descent_and_step_window(self):
        with pytest.raises(ValueError):
            more_thuente(Ray(lambda a: a, lambda a: 1.0, phi0=0.0, dphi0=1.0), P)
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
            more_thuente(Ray(phi, dphi), params)
        assert err.value.reason == "rounding"


# (sigma, eta) pairs from the default to a nearly empty strong Wolfe window
SIGMA_ETA = [(1e-4, 0.9), (1e-4, 0.1), (0.3, 0.5), (0.45, 0.451)]
POLYNOMIAL_RAYS = (
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.floats(1e-6, 1e6),
    st.sampled_from(SIGMA_ETA),
    st.integers(1, 60),
)


def _polynomial_ray(coeffs, scale):
    """phi and dphi of a polynomial ray whose slope is off by the factor ``scale``.

    The linear coefficient is made negative, so dphi(0) < 0; a scale
    other than 1 is what an inexact gradient gives.
    """
    coeffs = [coeffs[0], -abs(coeffs[1]) - 1e-3, *coeffs[2:]]

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

    return phi, dphi


@given(*POLYNOMIAL_RAYS)
def test_more_thuente_returns_or_raises_line_search_error(coeffs, scale, sigma_eta, maxfev):
    # the search either returns or reports why not
    phi, dphi = _polynomial_ray(coeffs, scale)
    sigma, eta = sigma_eta
    params = LineSearchParams(sigma=sigma, eta=eta, maxfev=maxfev)
    try:
        out = more_thuente(Ray(phi, dphi), params)
    except LineSearchError:
        return
    assert out.alpha > 0.0


@given(*POLYNOMIAL_RAYS)
def test_unbracketed_trial_never_lies_behind_the_best_step(coeffs, scale, sigma_eta, maxfev):
    # without a bracket, dcstep's fourth case takes stpmin where the trial
    # lies behind the best step and _trial_step's always takes stpmax: the
    # same step, because more_thuente never makes that call and, at the
    # best step, passes a window of one point
    calls = []

    def recording(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
        if not brackt:
            calls.append((stx, stp, stpmin, stpmax))
        return _trial_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax)

    phi, dphi = _polynomial_ray(coeffs, scale)
    sigma, eta = sigma_eta
    params = LineSearchParams(sigma=sigma, eta=eta, maxfev=maxfev)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linesearch, "_trial_step", recording)
        try:
            more_thuente(Ray(phi, dphi), params)
        except LineSearchError:
            pass
    for stx, stp, stpmin, stpmax in calls:
        assert stp > stx or stpmin == stpmax == stp == stx


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
        if rule == "gll":
            reference = max(rng.uniform(phi0, phi0 + 2.0, size=3).tolist() + [phi0])
        try:
            out = getattr(linesearch, SEARCH_NAMES[rule])(Ray(phi, dphi, phi0, dphi0, reference), params)
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
    first = more_thuente(Ray(phi, dphi), P)
    second = more_thuente(Ray(phi, dphi), P)
    assert first.alpha == second.alpha
    assert first.n_feval == second.n_feval


# more_thuente's failure reasons and the warnings dcsrch ends with in their place
DCSRCH_WARNINGS = {
    "maxfev": b"WARNING: dcsrch did not converge within max iterations",
    "stpmin": b"WARNING: STP = STPMIN",
    "stpmax": b"WARNING: STP = STPMAX",
    "xtol": b"WARNING: XTOL TEST SATISFIED",
    "rounding": b"WARNING: ROUNDING ERRORS PREVENT PROGRESS",
}


def assert_same_search_as_dcsrch(phi, dphi, params):
    """more_thuente makes dcsrch's trial steps and ends as dcsrch does; False if skipped.

    dcsrch evaluates a step before it tests the one before, so where the
    budget runs out it has evaluated one step more, which it never tests.
    Where an interpolation divides by zero, more_thuente ends with
    ``rounding``; scipy's port either raises ZeroDivisionError or, on
    numpy scalars, makes an infinite step that it may clip to a bound
    and evaluate, or ends with a bare WARN.  Those searches are skipped.
    """
    phi0, dphi0 = phi(0.0), dphi(0.0)
    ours, theirs = counted(phi), counted(phi)
    try:
        alpha, reason = more_thuente(Ray(ours, dphi, phi0=phi0, dphi0=dphi0), params).alpha, None
    except LineSearchError as err:
        alpha, reason = None, err.reason
    search = DCSRCH(theirs, dphi, params.sigma, params.eta, params.xtol, params.stpmin, params.stpmax)
    try:
        with np.errstate(all="ignore"):
            stp, _, _, task = search(1.0, phi0=phi0, derphi0=dphi0, maxiter=params.maxfev + 1)
    except ZeroDivisionError:
        task = b"WARN"
    if task == b"WARN":
        assert reason in ("rounding", "maxfev")
        return False
    assert [a for a, _ in ours.calls] == [a for a, _ in theirs.calls][:params.maxfev]
    if reason is None:
        assert task == b"CONVERGENCE" and stp == alpha
    else:
        assert task == DCSRCH_WARNINGS[reason]
    return True


def test_more_thuente_makes_the_trials_of_minpack2():
    # seeded smooth searches at four (sigma, eta) pairs
    rng = np.random.default_rng(19940901)
    compared = 0
    for i in range(5000):
        phi, dphi = _random_smooth_problem(rng)
        if not dphi(0.0) < 0.0:
            continue
        sigma, eta = SIGMA_ETA[i % len(SIGMA_ETA)]
        compared += assert_same_search_as_dcsrch(phi, dphi, LineSearchParams(sigma=sigma, eta=eta))
    assert compared > 4000


def test_modified_function_converts_the_far_endpoint_too():
    # values within two ulps of phi(0) = 4: after rounding, the modified
    # function at a trial can tie with its value at the best step, though
    # psi(best) <= 0 < psi(trial) in exact arithmetic.  _trial_step then
    # leaves its first case and reads the far endpoint, and dcsrch's
    # trials follow only if that endpoint is converted as well
    ray = {
        0.0: (4.0, -2.491981495498741e-12),
        1.0: (4.0, -1.9686653814440042e-13),
        5.0: (4.0, 2.292622975858841e-13),
        3.0365107875954305: (3.9999999999999996, -2.940538164688517e-13),
        3.9561369262301183: (3.999999999999999, -6.852949112621535e-13),
    }

    def phi(alpha):
        return ray.get(alpha, (4.0, 0.0))[0]

    def dphi(alpha):
        return ray.get(alpha, (4.0, 0.0))[1]

    params = LineSearchParams(sigma=1e-4, eta=0.5)
    assert assert_same_search_as_dcsrch(phi, dphi, params)
    assert more_thuente(Ray(phi, dphi, phi0=4.0, dphi0=ray[0.0][1]), params).alpha == 3.9561369262301183


def test_stage_switch_takes_a_tie_with_the_decrease_bound():
    # the third trial lands exactly on ftest = phi(0) + stp sigma dphi(0),
    # with a positive slope that fails the curvature test: the search
    # leaves the modified-function stage there (f <= ftest), and at the
    # fourth trial, above the bound but not above the best value, it works
    # on phi itself, as dcsrch does.  A tie at the first trial could not
    # tell f <= ftest from f < ftest: it becomes the best step of the
    # bracket [0, 1], where ftest lies at or above its value, so no later
    # trial lies above the bound but not above the best value
    ray = {
        0.0: (4.000000000000003, -1.3322676295501878e-14),
        1.0: (4.000000000000002, -2.5812202053387664e-14),
        5.0: (3.9999999999999964, 1.0382258148750417e-14),
        2.67521338012692: (3.999999999999999, 2.078447568593569e-14),
        4.678662702373102: (3.999999999999997, -3.007802702078207e-14),
        4.917543666269151: (4.000000000000001, 2.7045437325439707e-14),
        4.728666179234336: (4.000000000000002, 2.169152002735713e-14),
        4.681034621439081: (3.9999999999999964, 1.0351503096284934e-14),
    }
    phi0, dphi0 = ray[0.0]

    def phi(alpha):
        return ray.get(alpha, (phi0, 0.0))[0]

    def dphi(alpha):
        return ray.get(alpha, (phi0, 0.0))[1]

    params = LineSearchParams(sigma=0.1, eta=0.9)
    tie = 2.67521338012692
    assert ray[tie][0] == phi0 + tie * (params.sigma * dphi0)
    assert params.eta * -dphi0 < ray[tie][1]
    assert assert_same_search_as_dcsrch(phi, dphi, params)
    assert more_thuente(Ray(phi, dphi, phi0=phi0, dphi0=dphi0), params).alpha == 4.681034621439081


@given(*POLYNOMIAL_RAYS)
def test_more_thuente_makes_the_trials_of_minpack2_on_polynomial_rays(coeffs, scale, sigma_eta, maxfev):
    # an inexact slope makes most of these searches fail, each for a reason
    phi, dphi = _polynomial_ray(coeffs, scale)
    sigma, eta = sigma_eta
    assert_same_search_as_dcsrch(phi, dphi, LineSearchParams(sigma=sigma, eta=eta, maxfev=maxfev))


def _dcstep_discriminant(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt):
    """The discriminant of dcstep's unclipped square root for these inputs, or None.

    dcstep clips it to 0 in its third case only, and _trial_step clips it
    in every case; the unbracketed fourth case takes no root.
    """
    if fp > fx or dp * math.copysign(1.0, dx) < 0.0:
        sa, fa, da, sb, fb, db = stx, fx, dx, stp, fp, dp
    elif abs(dp) < abs(dx) or not brackt:
        return None
    else:
        sa, fa, da, sb, fb, db = stp, fp, dp, sty, fy, dy
    theta = 3.0 * (fa - fb) / (sb - sa) + da + db
    s = max(abs(theta), abs(da), abs(db))
    return (theta / s) ** 2 - (da / s) * (db / s)


def _dcstep_inputs(rng):
    """Random dcstep inputs of the kind more_thuente makes.

    The trial lies inside the bracket or, without one, beyond stx, and
    the slope at stx points toward it.
    """
    brackt = bool(rng.random() < 0.5)
    stx, other = rng.uniform(0.0, 10.0, size=2)
    if brackt:
        sty = other
        stp = float(min(stx, sty) + rng.uniform(0.01, 0.99) * abs(sty - stx))
    else:
        sty = float(rng.uniform(0.0, stx))
        stp = float(stx + rng.uniform(0.01, 10.0))
    dx = -math.copysign(float(rng.uniform(0.01, 5.0)), stp - stx)
    fx, fy, fp = rng.uniform(-2.0, 2.0, size=3)
    dy, dp = rng.uniform(-5.0, 5.0, size=2)
    stpmin, stpmax = sorted(rng.uniform(0.0, 30.0, size=2))
    return (float(stx), float(fx), dx, float(sty), float(fy), float(dy), stp, float(fp), float(dp),
            brackt, float(stpmin), float(stpmax))


def test_trial_step_is_dcstep_bit_for_bit():
    rng = np.random.default_rng(19931101)
    compared = 0
    for _ in range(20000):
        args = _dcstep_inputs(rng)
        disc = _dcstep_discriminant(*args[:10])
        if disc is not None and disc < 0.0:
            continue
        ours = _trial_step(*args)
        with np.errstate(all="ignore"):
            theirs = dcstep(*args)
        assert ours[7] is theirs[7]
        assert [float(v).hex() for v in ours[:7]] == [float(v).hex() for v in theirs[:7]]
        compared += 1
    assert compared > 15000
