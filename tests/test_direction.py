import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy.linalg import blas, lapack

from cautious_lbfgs import (
    BoundReport,
    SecantStore,
    Space,
    cautious_bound_report,
    make_grid_space,
    two_loop_norms,
)
from cautious_lbfgs.direction import _recursion, dense_hessian_inverse, two_loop


def dense_norms(matrix) -> tuple[float, float]:
    """(||H||, ||H^{-1}||) of a symmetric matrix from one ``eigvalsh``.

    The weight of a space is one scalar for every coordinate, so a
    self-adjoint operator has a symmetric matrix and its weighted norm
    is the matrix 2-norm.
    """
    magnitudes = np.abs(np.linalg.eigvalsh(matrix))
    smallest = float(magnitudes.min())
    return float(magnitudes.max()), 1.0 / smallest if smallest > 0.0 else math.inf


def numpy_two_loop_norms(space, pairs, gamma) -> tuple[float, float]:
    """``two_loop_norms`` by ``np.linalg.qr`` and ``np.linalg.eigvalsh``, the oracle of its bits.

    The same basis rule, and the library's compression: ``_recursion``
    on the F-ordered identity, with the coordinates of R in contiguous
    columns as the library reads them.  numpy wraps the LAPACK routines
    that ``two_loop_norms`` calls directly, so the two agree bit for bit.
    """
    if not pairs:
        return gamma, 1.0 / gamma
    k = len(pairs)
    if space.dim <= 2 * k:
        coords = pairs
    else:
        R = np.asfortranarray(np.linalg.qr(np.column_stack([p.s for p in pairs] + [p.y for p in pairs]), mode="r"))
        coords = [SimpleNamespace(s=R[:, i], y=R[:, k + i], sy=p.sy) for i, p in enumerate(pairs)]
    compressed = _recursion(space.weight, coords, gamma, np.eye(min(space.dim, 2 * k), order="F"))
    magnitudes = np.abs(np.linalg.eigvalsh(compressed))
    smallest = float(magnitudes.min())
    return float(magnitudes.max()), 1.0 / smallest if smallest > 0.0 else math.inf


def dense_hessian(space, pairs, gamma) -> np.ndarray:
    """Explicit Hessian approximation, the inverse of ``dense_hessian_inverse``.

    Built from gamma^{-1} * identity by the direct rank-two recursion;
    outer products carry the weight of the space as there.
    """
    w = space.weight
    B = (1.0 / gamma) * np.eye(space.dim)
    for pair in pairs:
        Bs = B @ pair.s
        B = B - np.outer(Bs, w * Bs) / space.inner(Bs, pair.s) + np.outer(pair.y, w * pair.y) / pair.sy
    return B


def check_bounds(H, gamma, kappa1, kappa2, n_pairs) -> BoundReport:
    """Audit ||H|| and ||H^{-1}|| of the matrix H against the update-count bounds.

    kappa1 and kappa2 must bound the pairs used (sy/ss >= 1/kappa1 and
    sy/yy >= 1/kappa2).  The inverse norm is bounded by
    1/gamma + n_pairs * kappa2 and the norm itself by
    5^n_pairs * max(1, gamma) * max(1, kappa1^n_pairs, (kappa1*kappa2)^n_pairs).
    """
    norm_h, norm_h_inv = dense_norms(H)
    return BoundReport(
        norm_h=norm_h,
        norm_h_inv=norm_h_inv,
        bound_h=5.0**n_pairs * max(1.0, gamma) * max(1.0, kappa1**n_pairs, (kappa1 * kappa2) ** n_pairs),
        bound_h_inv=1.0 / gamma + n_pairs * kappa2,
    )


def self_adjoint_defect(space, H, n_probes=8, seed=0) -> float:
    """max |inner(Hu, v) - inner(u, Hv)| in ``space`` over random unit probes of the matrix H."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        u = rng.standard_normal(space.dim)
        v = rng.standard_normal(space.dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(space.inner(H @ u, v) - space.inner(u, H @ v)))
    return worst


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


def reference_two_loop(space, pairs, gamma, grad):
    """The two-loop recursion with checked products and outer-product corrections throughout."""
    q = space.check(grad).copy()
    coeffs = []
    for pair in reversed(pairs):
        a = space.inner(pair.s, q) / pair.sy
        coeffs.append(a)
        q -= np.multiply.outer(pair.y, a)
    r = gamma * q
    for pair, a in zip(pairs, reversed(coeffs)):
        b = space.inner(pair.y, r) / pair.sy
        r += np.multiply.outer(pair.s, a - b)
    return -r


def allocating_two_loop(space, pairs, gamma, grad):
    """The two-loop recursion with a fresh array per update, the oracle of ``two_loop``'s bits."""
    q = grad.copy()
    coeffs = []
    for pair in reversed(pairs):
        a = space.weight * pair.s.dot(q) / pair.sy
        coeffs.append(a)
        q -= pair.y * a
    r = gamma * q
    for pair, a in zip(pairs, reversed(coeffs)):
        b = space.weight * pair.y.dot(r) / pair.sy
        r += pair.s * (a - b)
    return -r


# signed zeros and subnormals, where a reordered, fused or skipped product would show in the bits
SIGNED_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, -0.0, 0.0)


def with_signed_entries(rng, n, count):
    """A seeded normal vector of length n with ``count`` entries (at most 8) set to SIGNED_ENTRIES."""
    v = rng.standard_normal(n)
    v[rng.permutation(n)[:count]] = SIGNED_ENTRIES[:count]
    return v


@st.composite
def two_loop_inputs(draw):
    """Space, store of up to 10 pairs, seed scaling and gradient.

    Each y scales its s by positive per-coordinate curvatures, so every
    pair with a nonzero s has positive curvature.
    """
    n = draw(st.integers(1, 40))
    space = Space(dim=n, weight=draw(st.sampled_from([1.0, 1.0 / 32**2])))
    coords = st.floats(-10.0, 10.0, allow_subnormal=False)
    k = draw(st.integers(0, 10))
    steps = draw(hnp.arrays(float, (k, n), elements=coords))
    curvatures = draw(hnp.arrays(float, (k, n), elements=st.floats(1e-2, 1e2)))
    store = SecantStore(capacity=10)
    for i in range(k):
        store.push(space, steps[i], curvatures[i] * steps[i], index=i)
    gamma = draw(st.floats(1e-3, 1e3))
    return space, store, gamma, draw(hnp.arrays(float, n, elements=coords))


class TestTwoLoop:
    @given(two_loop_inputs())
    def test_bit_identical_to_reference_recursion(self, inputs):
        space, store, gamma, grad = inputs
        expected = reference_two_loop(space, store.pairs, gamma, grad)
        assert np.array_equal(two_loop(space, store.pairs, gamma, grad), expected)

    def test_no_pairs_scales_negative_gradient(self):
        space = Space(2)
        d = two_loop(space, [], 2.0, np.array([1.0, -1.0]))
        assert_allclose(d, [-2.0, 2.0], rtol=0, atol=0)

    def test_identical_pair_reproduces_identity(self):
        space = Space(2)
        store = SecantStore(capacity=1)
        store.push(space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
        d = two_loop(space, store.pairs, 1.0, np.array([3.0, 4.0]))
        assert_allclose(d, [-3.0, -4.0], rtol=0, atol=1e-15)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            two_loop(Space(2), [], 0.0, np.array([1.0, 1.0]))

    def test_rejects_nonpositive_curvature_pair(self):
        space = Space(2)
        store = SecantStore(capacity=1)
        store.push(space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
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
            expected = -H @ grad
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


    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("space", [Space(2), Space(300), make_grid_space(32)], ids=["n2", "n300", "grid32"])
    def test_bits_of_the_allocating_recursion(self, space, k):
        # two_loop updates one array in place through one scratch vector;
        # every entry must keep the bits of a fresh array per update
        rng = np.random.default_rng(1000 * space.dim + k)
        n = space.dim
        store = SecantStore(capacity=10)
        for i in range(k):
            s = with_signed_entries(rng, n, min(n // 4, 8))
            assert store.push(space, s, rng.uniform(0.5, 2.0, n) * s, index=i)
        pairs = store.active(0.0)
        for _ in range(3):
            gamma = float(rng.uniform(0.1, 10.0))
            grad = with_signed_entries(rng, n, min(n - 1, 8))
            before = grad.tobytes()
            d = two_loop(space, pairs, gamma, grad)
            assert d.tobytes() == allocating_two_loop(space, pairs, gamma, grad).tobytes()
            assert grad.tobytes() == before
            assert not np.shares_memory(d, grad)
            assert not any(np.shares_memory(d, p.s) or np.shares_memory(d, p.y) for p in pairs)


class TestDenseOperators:
    def test_inverse_hessian_without_pairs(self):
        H = dense_hessian_inverse(Space(2), [], 3.0)
        assert_allclose(H, 3.0 * np.eye(2), rtol=0, atol=0)

    def test_hessian_without_pairs(self):
        B = dense_hessian(Space(2), [], 4.0)
        assert_allclose(B, 0.25 * np.eye(2), rtol=0, atol=0)

    def test_unit_pair_preserves_identity(self):
        space = Space(2)
        store = SecantStore(capacity=1)
        store.push(space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
        assert_allclose(dense_hessian_inverse(space, store.pairs, 1.0), np.eye(2), atol=1e-15)
        assert_allclose(dense_hessian(space, store.pairs, 1.0), np.eye(2), atol=1e-15)

    def test_mutual_inverses_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            space, store, gamma = random_instance(rng)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            B = dense_hessian(space, store.pairs, gamma)
            assert_allclose(H @ B, np.eye(space.dim), rtol=0, atol=1e-10)

    def test_secant_property_for_most_recent_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            space, store, gamma = random_instance(rng)
            if not store.pairs:
                continue
            H = dense_hessian_inverse(space, store.pairs, gamma)
            newest = store.pairs[-1]
            assert_allclose(H @ newest.y, newest.s, rtol=1e-9, atol=1e-11)

    def test_self_adjoint_in_weighted_product(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            space, store, gamma = random_instance(rng)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            scale = max(1.0, dense_norms(H)[0])
            assert self_adjoint_defect(space, H) <= 1e-12 * scale

    def test_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            space, store, gamma = random_instance(rng)
            eigs = np.linalg.eigvalsh(dense_hessian_inverse(space, store.pairs, gamma))
            assert eigs.min() > 0.0

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            dense_hessian_inverse(Space(2001), [], 1.0)

    def test_operator_norm_tracks_eigvalsh(self):
        # the norms serve pass/fail audits, so they must be exact: the
        # extreme eigenvalues of the symmetric matrix
        rng = np.random.default_rng(1)
        for _ in range(30):
            space, store, gamma = random_instance(rng)
            H = dense_hessian_inverse(space, store.pairs, gamma)
            eigs = np.linalg.eigvalsh(H)
            norm_h, norm_h_inv = dense_norms(H)
            assert_allclose(norm_h, eigs.max(), rtol=1e-12)
            assert_allclose(norm_h_inv, 1.0 / eigs.min(), rtol=1e-12)
            assert norm_h <= eigs.max() * (1 + 1e-12)
            assert norm_h_inv <= (1.0 / eigs.min()) * (1 + 1e-12)


def instance_with_pairs(rng, dim, k, weight):
    """Space of the given weight, k pairs of a random SPD quadratic, and a seed scaling."""
    space = Space(dim=dim, weight=weight)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = Q @ np.diag(rng.uniform(0.25, 4.0, size=dim)) @ Q.T
    store = SecantStore(capacity=k)
    for i in range(k):
        s = rng.standard_normal(dim)
        assert store.push(space, s, A @ s, index=i)
    return space, store.pairs, float(rng.uniform(0.1, 10.0))


def assert_norms_match_dense(space, pairs, gamma):
    eigs = np.linalg.eigvalsh(dense_hessian_inverse(space, pairs, gamma))
    norm_h, norm_h_inv = two_loop_norms(space, pairs, gamma)
    assert_allclose(norm_h, eigs.max(), rtol=1e-10)
    assert_allclose(norm_h_inv, 1.0 / eigs.min(), rtol=1e-10)


def longdouble_norms_in_the_plane(space, pairs, gamma):
    """(||H||, ||H^{-1}||, kappa(H)) at n = 2, in ``np.longdouble``.

    H is built by the update form of ``dense_hessian_inverse`` from the
    stored s, y and sy, and its eigenvalues of the symmetric 2 x 2 matrix
    [[a, b], [b, c]] are taken in closed form: the larger is the mean of
    a and c plus hypot((a - c)/2, b), and the smaller the determinant
    over the larger.
    """
    ld = np.longdouble
    w, eye = ld(space.weight), np.eye(2, dtype=ld)
    H = ld(gamma) * eye
    for pair in pairs:
        s, y, rho = pair.s.astype(ld), pair.y.astype(ld), 1 / ld(pair.sy)
        V = eye - rho * np.outer(y, w * s)
        H = V.T @ H @ V + rho * np.outer(s, w * s)
    a, b, c = H[0, 0], (H[0, 1] + H[1, 0]) / 2, H[1, 1]
    big = (a + c) / 2 + np.hypot((a - c) / 2, b)
    small = (a * c - b * b) / big
    return big, 1 / small, big / small


class TestTwoLoopOperator:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is double here")
    def test_standard_basis_norms_against_a_long_double_oracle(self):
        # n = 2 with k = 1-4 pairs: the audit compresses in the standard
        # basis, where its relative error grows like kappa(H) eps.  Pairs of
        # quadratics with spectra in [0.01, 100] and seeds in [0.01, 100]
        # reach kappa = 1e5; over 20,000 such instances at kappa <= 1e5 the
        # error reached 1.1e-11, under half of this bound there, and the
        # audit's slack is 1e-9
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(3000):
            k = int(rng.integers(1, 5))
            space = Space(2, float(rng.uniform(0.05, 2.0)) if rng.random() < 0.5 else 1.0)
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            A = Q @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, size=2)) @ Q.T
            store = SecantStore(capacity=k)
            for i in range(k):
                s = rng.standard_normal(2)
                assert store.push(space, s, A @ s, index=i)
            gamma = float(10.0 ** rng.uniform(-2.0, 2.0))
            norm_h, norm_h_inv, kappa = longdouble_norms_in_the_plane(space, store.pairs, gamma)
            if kappa > 1e5:
                continue
            ours = two_loop_norms(space, store.pairs, gamma)
            error = max(abs(ours[0] - norm_h) / norm_h, abs(ours[1] - norm_h_inv) / norm_h_inv)
            assert error <= 2e-15 * max(float(kappa), 50.0)
            checked += 1
        assert checked > 2900

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

        for name in ("dgeqrf", "dgeqrf_lwork", "dsyevd", "dsyevd_lwork"):
            monkeypatch.setattr(lapack, name, forbidden)
        assert two_loop_norms(Space(300), [], 0.3) == (0.3, 1.0 / 0.3)

    @pytest.mark.parametrize("dim, k", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 2), (6, 3), (8, 4)])
    def test_no_qr_where_the_pairs_can_span_the_space(self, monkeypatch, dim, k):
        # n <= 2k: the standard basis of the whole space serves, unfactored
        rng = np.random.default_rng(100 * dim + k)
        instances = [instance_with_pairs(rng, dim, k, weight) for weight in (1.0, 0.3) for _ in range(10)]

        def forbidden(*args, **kwargs):
            raise AssertionError("QR factorization with n <= 2k")

        for name in ("dgeqrf", "dgeqrf_lwork"):
            monkeypatch.setattr(lapack, name, forbidden)
        for space, pairs, gamma in instances:
            assert_norms_match_dense(space, pairs, gamma)

    @pytest.mark.parametrize("weight", [1.0, 1.0 / 32**2])
    def test_lapack_gives_the_bits_of_numpy_linalg(self, monkeypatch, weight):
        # both bases, n from 2 to 961 and pair scales 1e-8 to 1e8; 2k >= 33
        # rows reduce blocked in dsyevd, and more than 128 columns factor
        # blocked in dgeqrf, where any workspace but the queried one moves
        # the bits.  Every norm is computed with np.linalg intact, then the
        # audit runs with np.linalg's routines forbidden
        rng = np.random.default_rng(int(weight == 1.0))
        shapes = [(2, 1), (2, 4), (5, 3), (6, 3), (7, 3), (40, 5), (300, 5), (300, 10), (961, 10),
                  (34, 17), (40, 20), (300, 17), (140, 70), (200, 66), (300, 70)]
        cases = []
        for dim, k in shapes:
            space = Space(dim, weight)
            for _ in range(4 if k > 10 else 20):
                scale = 10.0 ** rng.uniform(-8.0, 8.0)
                store = SecantStore(capacity=k)
                for i in range(k):
                    s = scale * rng.standard_normal(dim)
                    assert store.push(space, s, rng.uniform(0.1, 10.0, size=dim) * s, index=i)
                gamma = float(10.0 ** rng.uniform(-3.0, 3.0))
                cases.append((space, store.pairs, gamma, numpy_two_loop_norms(space, store.pairs, gamma)))

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg call in two_loop_norms")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, forbidden)
        for space, pairs, gamma, expected in cases:
            assert two_loop_norms(space, pairs, gamma) == expected, (space.dim, len(pairs))

    @pytest.mark.parametrize("dim, k", [(2, 1), (2, 3), (6, 3), (7, 3), (300, 5)])
    def test_audit_updates_in_place_and_leaves_the_pairs_unchanged(self, monkeypatch, dim, k):
        # at n <= 2k the stored arrays themselves go to dger as x and y;
        # every dger call must return the block it was given, updated in place
        space, pairs, gamma = instance_with_pairs(np.random.default_rng(dim + k), dim, k, 0.3)
        stored = [(p.s.tobytes(), p.y.tobytes(), p.sy) for p in pairs]
        dger = blas.dger
        calls = []

        def in_place_dger(alpha, x, y, a, overwrite_a):
            out = dger(alpha, x, y, a=a, overwrite_a=overwrite_a)
            calls.append(out is a)
            return out

        monkeypatch.setattr(blas, "dger", in_place_dger)
        two_loop_norms(space, pairs, gamma)
        assert calls == [True] * (2 * k)
        assert [(p.s.tobytes(), p.y.tobytes(), p.sy) for p in pairs] == stored

    def test_overflowed_compression_gives_the_norms_of_numpy_linalg(self):
        # gamma 1e200 overflows the compression of these pairs to a NaN
        # eigenvalue beside finite ones, in whatever order LAPACK sorts it
        space = Space(3)
        store = SecantStore(capacity=2)
        assert store.push(space, np.array([1e150, 0.0, 0.0]), np.array([1e50, 0.0, 0.0]), index=0)
        assert store.push(space, np.array([0.0, 1e150, 0.0]), np.array([0.0, 1e150, 0.0]), index=1)
        with np.errstate(all="ignore"):
            expected = numpy_two_loop_norms(space, store.pairs, 1e200)
            assert math.isnan(expected[0]) and expected[1] == math.inf
            norm_h, norm_h_inv = two_loop_norms(space, store.pairs, 1e200)
        assert math.isnan(norm_h) and norm_h_inv == math.inf

    def test_unconverged_eigenvalues_raise(self, monkeypatch):
        def unconverged(a, **kwargs):
            return np.zeros(len(a)), np.zeros((0, 0)), 1

        space, pairs, gamma = instance_with_pairs(np.random.default_rng(5), 6, 2, 1.0)
        monkeypatch.setattr(lapack, "dsyevd", unconverged)
        with pytest.raises(np.linalg.LinAlgError):
            two_loop_norms(space, pairs, gamma)

    @pytest.mark.parametrize("weight", [1.0, 0.3])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_norms_on_both_sides_of_the_basis_switch(self, k, extra, weight):
        # n = 2k takes the standard basis and n = 2k + 1 the QR basis
        rng = np.random.default_rng(10 * k + extra)
        for _ in range(20):
            assert_norms_match_dense(*instance_with_pairs(rng, 2 * k + extra, k, weight))

    def test_rejects_bad_inputs(self):
        space = Space(2)
        with pytest.raises(ValueError):
            two_loop_norms(space, [], 0.0)
        store = SecantStore(capacity=1)
        store.push(space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
        object.__setattr__(store.pairs[0], "sy", -1.0)
        with pytest.raises(ValueError):
            two_loop_norms(space, store.pairs, 1.0)

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
        H = dense_hessian_inverse(Space(3), [], 1.0)
        report = check_bounds(H, gamma=1.0, kappa1=1.0, kappa2=1.0, n_pairs=0)
        assert report.norm_h == 1.0
        assert report.norm_h_inv == 1.0
        assert report.bound_h == 1.0
        assert report.bound_h_inv == 1.0
        assert report.ok

    def test_trivial_unit_pair(self):
        space = Space(2)
        store = SecantStore(capacity=1)
        store.push(space, np.array([1.0, 0.0]), np.array([1.0, 0.0]), index=0)
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
        space = Space(2)
        report = cautious_bound_report(space, [], 1.0, threshold=0.5, m=1)
        assert report.bound_h_inv == 4.0
        assert report.bound_h == 5.0 * 2.0**3
        assert report.ok
        with pytest.raises(ValueError):
            cautious_bound_report(space, [], 1.0, threshold=2.0, m=1)

    @pytest.mark.parametrize("threshold", [0.0, 1e-200])
    def test_cautious_report_infinite_bounds(self, threshold):
        # level 0, and a level whose bound on ||H|| leaves the float range
        space, store = Space(2), SecantStore(capacity=2)
        store.push(space, np.array([1.0, 0.0]), np.array([2.0, 0.5]), index=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cautious_bound_report(space, store.pairs, 0.5, threshold=threshold, m=2)
        assert report.bound_h == math.inf
        assert math.isinf(report.bound_h_inv) == (threshold == 0.0)
        assert report.ok
