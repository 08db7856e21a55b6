import numpy as np
import pytest
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    Space,
    TwoLoopOperator,
    check_bounds,
    cautious_bound_report,
    dense_hessian,
    dense_hessian_inverse,
    euclidean,
    two_loop,
)
from cautious_lbfgs.secant_store import SecantStore


def random_instance(rng, dim=None, max_pairs=5, weighted=True):
    """Space, pair store and seed scaling drawn from a random SPD quadratic.

    Steps are random and y = A s for a random SPD matrix A with spectrum
    in [0.25, 4], which keeps the assembled operators well conditioned so
    the oracle comparisons are meaningful at tight tolerances.
    """
    dim = int(rng.integers(2, 9)) if dim is None else dim
    weight = float(rng.uniform(0.05, 2.0)) if weighted and rng.random() < 0.5 else 1.0
    space = Space(dim=dim, weight=weight)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = Q @ np.diag(rng.uniform(0.25, 4.0, size=dim)) @ Q.T
    store = SecantStore(capacity=max_pairs)
    n_pairs = int(rng.integers(0, max_pairs + 1))
    for k in range(n_pairs):
        s = rng.standard_normal(dim)
        store.push(space, s, A @ s, index=k)
    gamma = float(rng.uniform(0.1, 10.0))
    return space, store, gamma


class TestTwoLoop:
    def test_no_pairs_scales_negative_gradient(self):
        space = euclidean(2)
        d = two_loop(space, [], 2.0, np.array([1.0, -1.0]))
        assert_allclose(d, [-2.0, 2.0], rtol=0, atol=0)

    def test_identical_pair_reproduces_identity(self):
        space = euclidean(2)
        store = SecantStore(capacity=1)
        store.push(space, [1.0, 0.0], [1.0, 0.0], index=0)
        d = two_loop(space, store.pairs, 1.0, np.array([3.0, 4.0]))
        assert_allclose(d, [-3.0, -4.0], rtol=0, atol=1e-15)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            two_loop(euclidean(2), [], 0.0, np.array([1.0, 1.0]))

    def test_rejects_nonpositive_curvature_pair(self):
        space = euclidean(2)
        store = SecantStore(capacity=1)
        store.push(space, [1.0, 0.0], [1.0, 0.0], index=0)
        object.__setattr__(store.pairs[0], "sy", -1.0)
        with pytest.raises(ValueError):
            two_loop(space, store.pairs, 1.0, np.array([1.0, 1.0]))

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(20240915)
        for _ in range(300):
            space, store, gamma = random_instance(rng)
            grad = rng.standard_normal(space.dim)
            d = two_loop(space, store.pairs, gamma, grad)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            expected = -H.matrix @ grad
            assert_allclose(d, expected, rtol=1e-12, atol=1e-13)

    def test_descent_direction(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            space, store, gamma = random_instance(rng)
            grad = rng.standard_normal(space.dim)
            if space.norm(grad) < 1e-9:
                continue
            d = two_loop(space, store.pairs, gamma, grad)
            assert space.inner(grad, d) < 0.0


class TestDenseOperators:
    def test_inverse_hessian_without_pairs(self):
        H = dense_hessian_inverse(euclidean(2), [], 3.0)
        assert_allclose(H.matrix, 3.0 * np.eye(2), rtol=0, atol=0)

    def test_hessian_without_pairs(self):
        B = dense_hessian(euclidean(2), [], 4.0)
        assert_allclose(B.matrix, 0.25 * np.eye(2), rtol=0, atol=0)

    def test_unit_pair_preserves_identity(self):
        space = euclidean(2)
        store = SecantStore(capacity=1)
        store.push(space, [1.0, 0.0], [1.0, 0.0], index=0)
        assert_allclose(dense_hessian_inverse(space, store.pairs, 1.0).matrix, np.eye(2), atol=1e-15)
        assert_allclose(dense_hessian(space, store.pairs, 1.0).matrix, np.eye(2), atol=1e-15)

    def test_mutual_inverses_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            space, store, gamma = random_instance(rng)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            B = dense_hessian(space, store.pairs, gamma)
            assert_allclose(H.matrix @ B.matrix, np.eye(space.dim), rtol=0, atol=1e-10)

    def test_secant_property_for_most_recent_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            space, store, gamma = random_instance(rng)
            if not store.pairs:
                continue
            H = dense_hessian_inverse(space, store.pairs, gamma)
            newest = store.pairs[-1]
            assert_allclose(H.matrix @ newest.y, newest.s, rtol=1e-9, atol=1e-11)

    def test_self_adjoint_in_weighted_product(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            space, store, gamma = random_instance(rng)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            scale = max(1.0, H.operator_norm())
            assert H.self_adjoint_defect() <= 1e-12 * scale

    def test_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            space, store, gamma = random_instance(rng)
            eigs = np.linalg.eigvalsh(dense_hessian_inverse(space, store.pairs, gamma).matrix)
            assert eigs.min() > 0.0

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            dense_hessian_inverse(euclidean(2001), [], 1.0)

    def test_operator_norm_tracks_eigvalsh(self):
        # the norms serve pass/fail audits, so they must be exact: the
        # extreme eigenvalues of the symmetric matrix
        rng = np.random.default_rng(1)
        for _ in range(30):
            space, store, gamma = random_instance(rng)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            eigs = np.linalg.eigvalsh(H.matrix)
            norm_h = H.operator_norm()
            norm_h_inv = H.inverse_norm()
            assert_allclose(norm_h, eigs.max(), rtol=1e-12)
            assert_allclose(norm_h_inv, 1.0 / eigs.min(), rtol=1e-12)
            assert norm_h <= eigs.max() * (1 + 1e-12)
            assert norm_h_inv <= (1.0 / eigs.min()) * (1 + 1e-12)


def assert_norms_match_dense(space, pairs, gamma):
    eigs = np.linalg.eigvalsh(dense_hessian_inverse(space, pairs, gamma).matrix)
    H = TwoLoopOperator(space, pairs, gamma)
    assert_allclose(H.operator_norm(), eigs.max(), rtol=1e-10)
    assert_allclose(H.inverse_norm(), 1.0 / eigs.min(), rtol=1e-10)


class TestTwoLoopOperator:
    def test_norms_match_dense_on_random_instances(self):
        rng = np.random.default_rng(31337)
        seen = set()
        for _ in range(300):
            space, store, gamma = random_instance(rng)
            assert_norms_match_dense(space, store.pairs, gamma)
            seen.add((len(store.pairs), space.weight != 1.0))
        assert seen == {(k, weighted) for k in range(6) for weighted in (False, True)}

    def test_span_covering_the_space(self):
        # n = 2 with k = 4: eight vectors span R^2, so gamma is no eigenvalue
        rng = np.random.default_rng(8)
        for _ in range(50):
            space, store, gamma = random_instance(rng, dim=2, max_pairs=4)
            while len(store) < 4:
                space, store, gamma = random_instance(rng, dim=2, max_pairs=4)
            assert_norms_match_dense(space, store.pairs, gamma)

    def test_collinear_pairs(self):
        # y = c * s, as the piecewise quadratic produces: the span has rank k
        rng = np.random.default_rng(21)
        for _ in range(50):
            dim = int(rng.integers(2, 30))
            space = Space(dim=dim, weight=float(rng.uniform(0.05, 2.0)))
            store = SecantStore(capacity=5)
            for k in range(int(rng.integers(1, 6))):
                s = rng.standard_normal(dim)
                store.push(space, s, float(rng.choice([1.0, 100.0, rng.uniform(0.5, 50.0)])) * s, index=k)
            assert_norms_match_dense(space, store.pairs, float(rng.uniform(0.01, 1.0)))

    def test_collinear_and_general_pairs_mixed(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            space, store, gamma = random_instance(rng, max_pairs=3)
            s = rng.standard_normal(space.dim)
            store.push(space, s, 3.0 * s, index=len(store.pairs))
            assert_norms_match_dense(space, store.pairs, gamma)

    def test_no_pairs_needs_no_lapack(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK call without pairs")

        for name in ("qr", "svd", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        H = TwoLoopOperator(euclidean(300), [], 0.3)
        assert H.operator_norm() == 0.3
        assert H.inverse_norm() == 1.0 / 0.3

    def test_rejects_bad_inputs(self):
        space = euclidean(2)
        with pytest.raises(ValueError):
            TwoLoopOperator(space, [], 0.0)
        store = SecantStore(capacity=1)
        store.push(space, [1.0, 0.0], [1.0, 0.0], index=0)
        object.__setattr__(store.pairs[0], "sy", -1.0)
        with pytest.raises(ValueError):
            TwoLoopOperator(space, store.pairs, 1.0)

    def test_exact_where_power_iteration_underestimates(self):
        # dim 300, k = 5: 200 steps of power iteration from a fixed start
        # put ||H|| 1% below the largest eigenvalue of this instance
        rng = np.random.default_rng(38)
        space, store, gamma = random_instance(rng, dim=300, max_pairs=5)
        while len(store) < 5:
            space, store, gamma = random_instance(rng, dim=300, max_pairs=5)
        assert_norms_match_dense(space, store.pairs, gamma)


class TestBoundChecks:
    def test_trivial_no_pairs(self):
        H = dense_hessian_inverse(euclidean(3), [], 1.0)
        report = check_bounds(H, gamma=1.0, kappa1=1.0, kappa2=1.0, n_pairs=0)
        assert report.norm_h == 1.0
        assert report.norm_h_inv == 1.0
        assert report.bound_h == 1.0
        assert report.bound_h_inv == 1.0
        assert report.ok

    def test_trivial_unit_pair(self):
        space = euclidean(2)
        store = SecantStore(capacity=1)
        store.push(space, [1.0, 0.0], [1.0, 0.0], index=0)
        H = dense_hessian_inverse(space, store.pairs, 1.0)
        report = check_bounds(H, gamma=1.0, kappa1=1.0, kappa2=1.0, n_pairs=1)
        assert report.bound_h == 5.0
        assert report.bound_h_inv == 2.0
        assert report.ok

    def test_random_audit_never_fails(self):
        rng = np.random.default_rng(2718)
        for _ in range(300):
            space, store, gamma = random_instance(rng)
            if not store.pairs:
                continue
            H = dense_hessian_inverse(space, store.pairs, gamma)
            kappa1 = max(p.ss / p.sy for p in store.pairs)
            kappa2 = max(p.yy / p.sy for p in store.pairs)
            report = check_bounds(H, gamma, kappa1, kappa2, len(store.pairs))
            assert report.ok

    def test_cautious_report_uses_threshold_bounds(self):
        H = dense_hessian_inverse(euclidean(2), [], 1.0)
        report = cautious_bound_report(H, threshold=0.5, m=1)
        assert report.bound_h_inv == 4.0
        assert report.bound_h == 5.0 * 2.0**3
        assert report.ok
        with pytest.raises(ValueError):
            cautious_bound_report(H, threshold=2.0, m=1)
