"""Search directions via the two-loop recursion, plus operator norms.

The two-loop recursion is the production path.  :class:`TwoLoopOperator`
gives the exact norms of the operator it applies, ||H|| and ||H^{-1}||,
from an eigenproblem of size at most 2k x 2k on the span of the k
active pairs, at O(n k^2 + k^3) cost; the solver audits the norm bounds
with it at run time.  The dense builders materialize the same operator
(and its inverse) as explicit n x n matrices, at O(k n^3) cost, and
serve as test oracles for both.  All adjoints and outer products are
taken with respect to the weighted inner product of the supplied space,
not the Euclidean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .secant_store import SecantPair
from .space import Space

DENSE_DIM_LIMIT = 2000


def two_loop(space: Space, active: Sequence[SecantPair], gamma: float, grad) -> np.ndarray:
    """Direction -H * grad for the operator seeded with gamma * identity.

    ``active`` holds the pairs in storage order (oldest first); the most
    recent pair acts outermost.  Every pair must have positive curvature
    and gamma must be positive, which makes the operator positive
    definite and the result a descent direction for any nonzero grad.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    q = space.check(grad).copy()
    coeffs = []
    for pair in reversed(active):
        if not pair.sy > 0.0:
            raise ValueError(f"active pair {pair.index} has nonpositive curvature {pair.sy}")
        a = space.inner(pair.s, q) / pair.sy
        coeffs.append(a)
        q -= a * pair.y
    r = gamma * q
    for pair, a in zip(active, reversed(coeffs)):
        b = space.inner(pair.y, r) / pair.sy
        r += (a - b) * pair.s
    return -r


class _SpectralNorms:
    """Operator norms of a self-adjoint operator read off its eigenvalues.

    Subclasses supply :meth:`moduli`, the smallest and largest eigenvalue
    modulus.  For a self-adjoint operator these give ||H|| and
    ||H^{-1}|| exactly; a singular operator has an infinite inverse norm.
    """

    def moduli(self) -> tuple[float, float]:
        raise NotImplementedError

    def norms(self) -> tuple[float, float]:
        """(||H||, ||H^{-1}||) from one eigenvalue computation."""
        smallest, largest = self.moduli()
        return largest, 1.0 / smallest if smallest > 0.0 else math.inf

    def operator_norm(self) -> float:
        return self.norms()[0]

    def inverse_norm(self) -> float:
        return self.norms()[1]


@dataclass(frozen=True)
class DenseOperator(_SpectralNorms):
    """Explicit matrix of a self-adjoint operator on ``space``.

    ``matrix`` maps coordinate vectors; self-adjointness is with respect
    to the weighted inner product.  The weight is one scalar for every
    coordinate, so a self-adjoint operator has a symmetric matrix and its
    weighted operator norm is the Euclidean matrix 2-norm, which lets the
    norms come from ``eigvalsh``.
    """

    space: Space
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, v) -> np.ndarray:
        return self.matrix @ self.space.check(v)

    def self_adjoint_defect(self, n_probes: int = 8, seed: int = 0) -> float:
        """max |inner(Mu, v) - inner(u, Mv)| over random unit probes."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_probes):
            u = rng.standard_normal(self.dim)
            v = rng.standard_normal(self.dim)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            worst = max(worst, abs(self.space.inner(self.matrix @ u, v) - self.space.inner(u, self.matrix @ v)))
        return worst

    def moduli(self) -> tuple[float, float]:
        eigs = np.abs(np.linalg.eigvalsh(self.matrix))
        return float(eigs.min()), float(eigs.max())


class TwoLoopOperator(_SpectralNorms):
    """The operator :func:`two_loop` applies, with exact norms at low cost.

    The recursion maps a vector orthogonal to every s and y of ``pairs``
    to gamma times itself.  H is self-adjoint, so any subspace containing
    span(S, Y) is invariant, and the spectrum of H is that of its
    restriction there, plus gamma when the subspace is proper.  The
    weight is one scalar, so the QR factorization [S Y] = Q R gives an
    orthonormal basis Q of such a subspace, of dimension m = min(n, 2k),
    and in R the coordinates of every s and y, which keep their weighted
    inner products.  The restriction Q^T H Q is the same recursion run on
    these coordinates, applied to the m x m identity, and one m x m
    ``eigvalsh`` gives its spectrum.  No rank decision is needed: when
    [S Y] is rank-deficient, the rest of span(Q) lies where H is gamma.
    Nor does gamma need adding when m < n: H^{-1} - I/gamma is k
    positive semidefinite rank-one terms minus k others, so on m > k
    dimensions it has an eigenvalue of each sign or a zero one, and the
    extremes of the restriction bracket gamma already.

    For k pairs this costs O(n k^2 + k^3), against O(k n^3) for
    :func:`dense_hessian_inverse`; without pairs the norms are gamma and
    1/gamma with no LAPACK call.
    """

    def __init__(self, space: Space, pairs: Sequence[SecantPair], gamma: float):
        _validate_operator_inputs(pairs, gamma)
        self.space = space
        self.pairs = pairs
        self.gamma = gamma

    def moduli(self) -> tuple[float, float]:
        gamma = self.gamma
        if not self.pairs:
            return gamma, gamma
        k = len(self.pairs)
        R = np.linalg.qr(np.column_stack([p.s for p in self.pairs] + [p.y for p in self.pairs]), mode="r")
        restriction = _two_loop_matrix(self.space.weight, R[:, :k], R[:, k:],
                                       [p.sy for p in self.pairs], gamma)
        eigs = np.abs(np.linalg.eigvalsh(restriction))
        return float(eigs.min()), float(eigs.max())


def _two_loop_matrix(weight: float, S: np.ndarray, Y: np.ndarray, sy: Sequence[float],
                     gamma: float) -> np.ndarray:
    """Matrix of H on R^m, by the recursion of :func:`two_loop` on the identity.

    Column i of S and Y holds pair i, oldest first; ``sy`` holds the
    pairs' inner(s, y).
    """
    q = np.eye(S.shape[0])
    coeffs = []
    for i in reversed(range(S.shape[1])):
        a = (weight / sy[i]) * (S[:, i] @ q)
        coeffs.append(a)
        q -= np.outer(Y[:, i], a)
    r = gamma * q
    for i, a in enumerate(reversed(coeffs)):
        b = (weight / sy[i]) * (Y[:, i] @ r)
        r += np.outer(S[:, i], a - b)
    return r


def _validate_dense_inputs(space: Space, pairs: Sequence[SecantPair], gamma: float) -> None:
    if space.dim > DENSE_DIM_LIMIT:
        raise ValueError(f"dense oracle limited to dim <= {DENSE_DIM_LIMIT}, got {space.dim}")
    _validate_operator_inputs(pairs, gamma)


def _validate_operator_inputs(pairs: Sequence[SecantPair], gamma: float) -> None:
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    for pair in pairs:
        if not pair.sy > 0.0:
            raise ValueError(f"pair {pair.index} has nonpositive curvature {pair.sy}")


def dense_hessian_inverse(space: Space, pairs: Sequence[SecantPair], gamma: float) -> DenseOperator:
    """Explicit inverse-Hessian approximation built by the update recursion.

    Starts from gamma * identity and applies the rank-two update for each
    pair, oldest first.  Outer products v w^T act as u -> v * inner(w, u),
    so in coordinates they carry the weight of the space.
    """
    _validate_dense_inputs(space, pairs, gamma)
    n = space.dim
    w = space.weight
    eye = np.eye(n)
    H = gamma * eye
    for pair in pairs:
        rho = pair.rho
        V = eye - rho * np.outer(pair.y, w * pair.s)
        V_adj = eye - rho * np.outer(pair.s, w * pair.y)
        H = V_adj @ H @ V + rho * np.outer(pair.s, w * pair.s)
    return DenseOperator(space=space, matrix=H)


def dense_hessian(space: Space, pairs: Sequence[SecantPair], gamma: float) -> DenseOperator:
    """Explicit Hessian approximation; inverse of :func:`dense_hessian_inverse`.

    Built from gamma^{-1} * identity by the direct rank-two recursion.  A
    nonpositive inner(B s, s) along the way means the positive-definite
    invariant was broken upstream and raises.
    """
    _validate_dense_inputs(space, pairs, gamma)
    n = space.dim
    w = space.weight
    B = (1.0 / gamma) * np.eye(n)
    for pair in pairs:
        Bs = B @ pair.s
        sBs = space.inner(Bs, pair.s)
        if not sBs > 0.0:
            raise ValueError(f"inner(B s, s) = {sBs} <= 0 at pair {pair.index}")
        B = B - np.outer(Bs, w * Bs) / sBs + np.outer(pair.y, w * pair.y) / pair.sy
    return DenseOperator(space=space, matrix=B)


@dataclass(frozen=True)
class BoundReport:
    """Computed operator norms and their comparison against known bounds."""

    norm_h: float
    norm_h_inv: float
    bound_h: float
    bound_h_inv: float

    @property
    def h_ok(self) -> bool:
        return self.norm_h <= self.bound_h * (1.0 + 1e-9)

    @property
    def h_inv_ok(self) -> bool:
        return self.norm_h_inv <= self.bound_h_inv * (1.0 + 1e-9)

    @property
    def ok(self) -> bool:
        return self.h_ok and self.h_inv_ok


def check_bounds(
    H: _SpectralNorms,
    gamma: float,
    kappa1: float,
    kappa2: float,
    n_pairs: int,
) -> BoundReport:
    """Audit ||H|| and ||H^{-1}|| against the update-count bounds.

    kappa1 and kappa2 must bound the pairs used (sy/ss >= 1/kappa1 and
    sy/yy >= 1/kappa2).  The inverse norm is bounded by
    1/gamma + n_pairs * kappa2 and the norm itself by
    5^n_pairs * max(1, gamma) * max(1, kappa1^n_pairs, (kappa1*kappa2)^n_pairs).
    """
    bound_h_inv = 1.0 / gamma + n_pairs * kappa2
    bound_h = (
        5.0**n_pairs
        * max(1.0, gamma)
        * max(1.0, kappa1**n_pairs, (kappa1 * kappa2) ** n_pairs)
    )
    norm_h, norm_h_inv = H.norms()
    return BoundReport(
        norm_h=norm_h,
        norm_h_inv=norm_h_inv,
        bound_h=bound_h,
        bound_h_inv=bound_h_inv,
    )


def cautious_bound_report(H: _SpectralNorms, threshold: float, m: int) -> BoundReport:
    """Audit against the threshold-based bounds of the cautious method.

    With every applied pair passing the quality filter at ``threshold``
    and the seed scaling confined to [threshold, 1/threshold], the
    operator norms obey ||H^{-1}|| <= (m+1)/threshold and
    ||H|| <= 5^m * max(1, threshold^-(2m+1)).  ``H`` is a
    :class:`TwoLoopOperator` or a :class:`DenseOperator`; its norms are
    computed here.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    norm_h, norm_h_inv = H.norms()
    return BoundReport(
        norm_h=norm_h,
        norm_h_inv=norm_h_inv,
        bound_h=5.0**m * max(1.0, threshold ** -(2 * m + 1)),
        bound_h_inv=(m + 1) / threshold,
    )
