import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cautious_lbfgs import CautiousParams, SecantStore, SolverConfig, Space
from cautious_lbfgs.secant_store import cautious_threshold, choose_seed_scaling


def _pushed(space, s, y):
    """Store holding (s, y) if push accepted it, and whether it did."""
    store = SecantStore(capacity=1)
    return store, store.push(space, s, y, index=0)


class TestCurvatureQuality:
    space = Space(2)

    def test_identical_vectors(self):
        store, stored = _pushed(self.space, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert stored
        assert store.pairs[0].quality == 1.0

    def test_scaled_vector(self):
        store, stored = _pushed(self.space, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert stored
        assert store.pairs[0].quality == 0.5

    def test_zero_y_branch(self):
        store, stored = _pushed(self.space, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert not stored and len(store) == 0

    def test_zero_s_branch(self):
        store, stored = _pushed(self.space, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert not stored and len(store) == 0

    def test_negative_curvature(self):
        store, stored = _pushed(self.space, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert not stored and len(store) == 0


class TestCautiousThreshold:
    def test_capped_by_c0(self):
        p = CautiousParams(m=2, c0=1e-4, c1=1.0, c2=1 / 7)
        assert cautious_threshold(1.0, p) == 1e-4

    def test_power_branch(self):
        p = CautiousParams(m=2, c0=1e-4, c1=1.0, c2=1 / 7)
        assert_allclose(cautious_threshold(1e-35, p), 1e-5, rtol=1e-12)

    def test_plain_product(self):
        p = CautiousParams(m=0, c0=1.0, c1=2.0, c2=1.0)
        assert cautious_threshold(0.25, p) == 0.5

    def test_extreme_powers_stay_in_range(self):
        params = CautiousParams(m=1, c2=200.0)
        assert cautious_threshold(1e-10, params) == 0.0  # underflow: level 0
        assert cautious_threshold(1e4, params) == params.c0  # power overflows

    def test_zero_gradient_is_logic_error(self):
        with pytest.raises(ValueError):
            cautious_threshold(0.0, CautiousParams(m=1))

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_value_in_unit_interval_of_c0(self, gnorm):
        p = CautiousParams(m=3)
        w = cautious_threshold(gnorm, p)
        assert 0.0 < w <= p.c0 <= 1.0


class TestCautiousParams:
    def test_default_c2(self):
        assert CautiousParams(m=2).c2 == 1 / 7
        assert CautiousParams(m=0).c2 == 1 / 3

    @pytest.mark.parametrize("m", [0, 1, 5, 10])
    def test_defaults(self, m):
        params = CautiousParams(m=m)
        assert (params.c0, params.c1, params.c2) == (1e-4, 1.0, 1.0 / (2 * m + 3))

    @pytest.mark.parametrize("m", [0, 1, 5, 10])
    @pytest.mark.parametrize("ls, bound", [("armijo", 1), ("gll", 1), ("wolfe", 2), ("mt", 2)])
    def test_rate_guard_edges(self, m, ls, bound):
        # c2 below 1/(2m + 1), or 1/(2m + 2) for the Wolfe searches, stays
        # silent; c2 at that bound warns
        edge = 1.0 / (2 * m + bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SolverConfig(cautious=CautiousParams(m=m, c2=math.nextafter(edge, 0.0)), linesearch=ls)
        with pytest.warns(UserWarning, match="linear-rate"):
            SolverConfig(cautious=CautiousParams(m=m, c2=edge), linesearch=ls)

    def test_validation(self):
        with pytest.raises(ValueError):
            CautiousParams(m=-1)
        with pytest.raises(ValueError):
            CautiousParams(m=1, c0=0.0)
        with pytest.raises(ValueError):
            CautiousParams(m=1, c0=1.5)
        with pytest.raises(ValueError):
            CautiousParams(m=1, c1=-1.0)
        with pytest.raises(ValueError):
            CautiousParams(m=1, c2=0.0)

    def test_rate_guard_warns_but_does_not_raise(self):
        # the guard needs m and the line search, so the config that holds both checks it
        with pytest.warns(UserWarning, match="linear-rate"):
            SolverConfig(cautious=CautiousParams(m=2, c2=0.5), linesearch="armijo")
        # the default choice stays silent, also under the tighter Wolfe bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SolverConfig(cautious=CautiousParams(m=2), linesearch="wolfe")


class TestBbScalars:
    space = Space(2)

    def test_parallel_pair(self):
        store, stored = _pushed(self.space, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert stored
        assert store.bb_scaling == 0.5

    def test_general_pair(self):
        # sy/yy = 3/5 is the smaller of the two scalings; ss/sy = 2/3
        store, stored = _pushed(self.space, np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert stored
        assert_allclose(store.bb_scaling, 0.6, rtol=1e-15)

    def test_rounding_flip_keeps_smaller_scaling(self):
        # parallel vectors: rounding puts sy/yy one ulp above ss/sy = 11
        s = np.array([2.0, 17.0])
        store, stored = _pushed(self.space, s, s / 11.0)
        assert stored
        assert store.bb_scaling == 11.0

    def test_requires_positive_curvature(self):
        store, stored = _pushed(self.space, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert not stored
        assert store.bb_scaling is None

    def test_quadratic_spectrum_containment(self):
        # y = H s for H = diag(1, 4): the scaling lies in the spectrum
        # [1/4, 1] of the inverse, verified over random steps
        H = np.diag([1.0, 4.0])
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = rng.standard_normal(2)
            if np.linalg.norm(s) < 1e-12:
                continue
            store, stored = _pushed(self.space, s, H @ s)
            assert stored
            assert 0.25 - 1e-12 <= store.bb_scaling <= 1.0 + 1e-12


class TestSecantStore:
    space = Space(2)

    def test_push_accepts_positive_curvature(self):
        store = SecantStore(capacity=2)
        assert store.push(self.space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
        assert len(store) == 1
        assert store.bb_scaling == 1.0

    def test_fifo_eviction_at_capacity(self):
        store = SecantStore(capacity=2)
        for k in range(3):
            assert store.push(self.space, np.array([1.0, 0.0]), np.array([float(k + 1), 0.0]), index=k)
        assert len(store) == 2
        assert [p.index for p in store.pairs] == [1, 2]

    def test_rejection_leaves_pairs_untouched(self):
        store = SecantStore(capacity=2)
        store.push(self.space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
        before = pickle.dumps(store.pairs)
        assert not store.push(self.space, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), index=1)
        assert pickle.dumps(store.pairs) == before
        assert store.bb_scaling is None

    def test_rejects_subnormal_curvature(self):
        store = SecantStore(capacity=2)
        # sy = 5e-324 > 0, but the quality underflows to 0
        assert not store.push(self.space, np.array([0.0, 1.0]), np.array([2.0, 5e-324]), index=0)
        # quality 1, but rho = 1/sy overflows to inf
        assert not store.push(self.space, np.array([1e-155, 0.0]), np.array([1e-155, 0.0]), index=1)
        assert len(store) == 0
        assert store.bb_scaling is None

    def test_capacity_zero_keeps_no_pairs_but_updates_scaling(self):
        store = SecantStore(capacity=0)
        assert store.push(self.space, np.array([1.0, 0.0]), np.array([2.0, 0.0]), index=0)
        assert len(store) == 0
        assert store.bb_scaling == 0.5

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SecantStore(capacity=-1)

    def test_active_filter(self):
        store = SecantStore(capacity=3)
        store.pairs = [
            _pair(self.space, q, k) for k, q in enumerate([0.5, 1e-6, 0.3])
        ]
        assert [p.index for p in store.active(1e-4)] == [0, 2]
        assert [p.index for p in store.active(1e-7)] == [0, 1, 2]
        assert SecantStore(capacity=3).active(1e-4) == []

    def test_active_ties_count(self):
        store = SecantStore(capacity=1)
        store.push(self.space, np.array([1.0, 0.0]), np.array([2.0, 0.0]), index=0)
        assert len(store.active(store.pairs[0].quality)) == 1

    def test_snapshot_is_scalar_only(self):
        store = SecantStore(capacity=1)
        store.push(self.space, np.array([1.0, 1.0]), np.array([1.0, 2.0]), index=4)
        (snap,) = store.snapshot()
        assert set(snap) == {"index", "sy", "ss", "yy", "quality"}
        assert snap["index"] == 4


def _pair(space, quality, index):
    # fabricate a stored pair with a prescribed quality: y = q * s has
    # quality min(q, 1/q) = q for q <= 1
    s = np.array([1.0, 0.0])
    y = quality * s
    store = SecantStore(capacity=1)
    store.push(space, s, y, index=index)
    return store.pairs[0]


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2), st.floats(-2, 2)), max_size=30))
@example([(0.0, 1.0, 2.0, 5e-324)])  # subnormal sy: zero quality, infinite rho
def test_store_invariants_after_any_push_sequence(raw):
    space = Space(2)
    store = SecantStore(capacity=3)
    accepted = False
    for k, (a, b, c, d) in enumerate(raw):
        accepted = store.push(space, np.array([a, b]), np.array([c, d]), index=k)
    assert len(store) <= 3
    indices = [p.index for p in store.pairs]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)
    for p in store.pairs:
        assert p.sy > 0.0
        assert p.quality > 0.0
    # the scalar is the latest push's, None unless that push was accepted,
    # and 1, the unscaled seed, before any push
    if raw:
        assert (store.bb_scaling is not None) == accepted
    else:
        assert store.bb_scaling == 1.0
    assert store.bb_scaling is None or store.bb_scaling >= 0.0


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2), st.floats(-2, 2)), max_size=30))
@example([(0.0, 1.0, 2.0, 5e-324), (1e-155, 0.0, 1e-155, 0.0), (1.0, 1.0, 1.0, 1.0 + 2**-52)])
def test_capacity_zero_decides_and_scales_as_capacity_one(raw):
    # the memory-free store builds no pair; the one-pair store is its oracle
    space = Space(2)
    bare, one = SecantStore(capacity=0), SecantStore(capacity=1)
    for k, (a, b, c, d) in enumerate(raw):
        s, y = np.array([a, b]), np.array([c, d])
        assert bare.push(space, s, y, index=k) == one.push(space, s, y, index=k)
        assert bare.bb_scaling == one.bb_scaling
        assert len(bare) == 0 and not bare.pairs and bare.snapshot() == []


@given(st.floats(min_value=1e-8, max_value=1.0), st.floats(min_value=1e-8, max_value=1.0))
def test_active_filter_is_monotone(w_small, w_big):
    lo, hi = sorted([w_small, w_big])
    space = Space(2)
    store = SecantStore(capacity=5)
    rng = np.random.default_rng(3)
    k = 0
    while len(store.pairs) < 5:
        s, y = rng.standard_normal(2), rng.standard_normal(2)
        if space.inner(s, y) > 0:
            store.push(space, s, y, index=k)
            k += 1
    big = {p.index for p in store.active(hi)}
    small = {p.index for p in store.active(lo)}
    assert big <= small


def _intersection_rule(gamma_minus, gamma_plus, threshold, fallback):
    """The seed scaling as first written: clamp into [gamma-, gamma+] intersected with [w, 1/w].

    (0, inf) stands for "no usable pair"; an empty intersection clamps
    into [w, 1/w] alone.
    """
    lo, hi = threshold, (1.0 / threshold if threshold > 0.0 else math.inf)
    degenerate = gamma_minus == 0.0 and math.isinf(gamma_plus)
    target = fallback if degenerate else gamma_minus
    ilo, ihi = max(gamma_minus, lo), min(gamma_plus, hi)
    if not ilo <= ihi:
        ilo, ihi = lo, hi
    return min(max(target, ilo), ihi)


class TestChooseSeedScaling:
    space = Space(2)

    def _store(self, bb_scaling):
        store = SecantStore(capacity=1)
        store.bb_scaling = bb_scaling
        return store

    def test_point_interval(self):
        assert choose_seed_scaling(self._store(0.5), 1e-4, 2.0) == 0.5

    def test_degenerate_interval_uses_fallback(self):
        store = self._store(None)
        assert choose_seed_scaling(store, 0.1, fallback=1.0) == 1.0
        assert choose_seed_scaling(store, 0.1, fallback=3.0) == 3.0

    def test_empty_intersection_clamps_into_threshold_interval(self):
        # a scaling below or above [1e-4, 1e4] goes to the nearer end
        assert choose_seed_scaling(self._store(1e-6), 1e-4, 2.0) == 1e-4
        assert choose_seed_scaling(self._store(1e5), 1e-4, 2.0) == 1e4

    def test_unrestricted_returns_target(self):
        # filter level 0 is the classical, unclamped scaling
        assert choose_seed_scaling(self._store(1e-6), 0.0, 2.0) == 1e-6
        assert choose_seed_scaling(self._store(None), 0.0, fallback=7.0) == 7.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            choose_seed_scaling(self._store(1.0), -1e-300, 2.0)
        with pytest.raises(ValueError):
            choose_seed_scaling(self._store(1.0), 1.5, 2.0)
        assert choose_seed_scaling(self._store(1.0), 0.0, 2.0) == 1.0

    @given(
        st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                           st.floats(-2, 2), st.floats(-2, 2)), max_size=5),
        st.floats(min_value=1e-9, max_value=1e9),
    )
    def test_level_zero_returns_unclamped_target(self, raw, fallback):
        store = SecantStore(capacity=2)
        for k, (a, b, c, d) in enumerate(raw):
            store.push(self.space, np.array([a, b]), np.array([c, d]), index=k)
        target = fallback if store.bb_scaling is None else store.bb_scaling
        assert choose_seed_scaling(store, 0.0, fallback) == target

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-12, max_value=1e12),
        st.floats(min_value=1e-9, max_value=1e9),
    )
    def test_result_always_inside_threshold_interval(self, w, gm, fallback):
        for bb_scaling in (gm, None):
            gamma = choose_seed_scaling(self._store(bb_scaling), w, fallback=fallback)
            assert w <= gamma <= 1.0 / w

    @given(
        st.one_of(st.none(), st.tuples(st.floats(min_value=0.0), st.floats(min_value=0.0))),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, exclude_min=True),
    )
    @example((0.5, 0.5), 1e-4, 1.0)  # equal ends
    @example((1e-6, 1e-5), 1e-4, 1.0)  # intersection empty below
    @example((1e5, 1e6), 1e-4, 1.0)  # intersection empty above
    @example((2.0, 3.0), 0.0, 1.0)
    @example((2.0, 3.0), 1.0, 1.0)
    @example(None, 0.0, math.inf)
    @example(None, 1.0, math.inf)
    @example((0.0, 5e-324), 0.5, 2.0)  # an underflowed ss/sy
    def test_projection_matches_intersection_rule(self, ends, threshold, fallback):
        gamma_minus, gamma_plus = sorted(ends) if ends else (0.0, math.inf)
        # push never leaves (0, inf) after an accepted pair: by Cauchy-Schwarz
        # ss/sy and sy/yy cannot underflow and overflow together
        assume(ends is None or (gamma_minus, gamma_plus) != (0.0, math.inf))
        store = self._store(gamma_minus if ends else None)
        expected = _intersection_rule(gamma_minus, gamma_plus, threshold, fallback)
        assert choose_seed_scaling(store, threshold, fallback) == expected
