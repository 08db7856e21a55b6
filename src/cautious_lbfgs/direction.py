"""Search directions via the two-loop recursion, plus operator norms.

The two-loop recursion is the production path.  :func:`two_loop_norms`
gives the exact norms of the operator it applies, ||H|| and ||H^{-1}||,
from an eigenproblem of size at most 2k x 2k on the span of the k
active pairs, at O(n k^2 + k^3) cost; :func:`cautious_bound_report`
audits the norm bounds with it at run time.  The dense builders return
the same operator (and its inverse) as explicit n x n matrices, at
O(k n^3) cost, and serve as test oracles for both.  All adjoints and
outer products are taken with respect to the weighted inner product of
the supplied space, not the Euclidean one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
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
    _validate_operator_inputs(active, gamma)
    return -_recursion(space.weight, active, gamma, space.check(grad).copy())


def _recursion(weight: float, pairs: Sequence, gamma: float, q: np.ndarray) -> np.ndarray:
    """H q by the two-loop recursion, overwriting q.

    Each pair has attributes s, y and sy = inner(s, y), oldest first; s
    and y are coordinates whose inner product is ``weight`` times the dot
    product.  q is a vector or a block of columns, and each rank-one
    correction a scaled vector or an outer product: for a scalar
    coefficient the two products agree bit for bit.  ``ndarray.dot`` is
    the routine ``np.dot`` dispatches to, called without the dispatch.
    """
    scaled = operator.mul if q.ndim == 1 else np.multiply.outer
    coeffs = []
    for pair in reversed(pairs):
        a = weight * pair.s.dot(q) / pair.sy
        coeffs.append(a)
        q -= scaled(pair.y, a)
    r = gamma * q
    for pair, a in zip(pairs, reversed(coeffs)):
        b = weight * pair.y.dot(r) / pair.sy
        r += scaled(pair.s, a - b)
    return r


def two_loop_norms(space: Space, pairs: Sequence[SecantPair], gamma: float) -> tuple[float, float]:
    """(||H||, ||H^{-1}||) of the operator :func:`two_loop` applies, exactly and at low cost.

    The recursion maps a vector orthogonal to every s and y of ``pairs``
    to gamma times itself.  H is self-adjoint, so any subspace containing
    span(S, Y) is invariant, and the spectrum of H is that of its
    compression there, plus gamma when the subspace is proper.  The
    compression is the same recursion run on the pairs' coordinates in
    an orthonormal basis of such a subspace, applied to the identity of
    its dimension m = min(n, 2k), and one m x m ``eigvalsh`` gives its
    spectrum.  The basis follows one rule.  When n <= 2k, it is the
    standard basis of the whole space, the coordinates are the pairs
    themselves, and no factorization is made.  When n > 2k, the QR
    factorization [S Y] = Q R gives an orthonormal basis Q of a
    subspace containing span(S, Y), and in R the coordinates of every s
    and y, which keep their weighted inner products because the weight
    is one scalar.  No rank decision is needed: when [S Y] is
    rank-deficient, the rest of span(Q) lies where H is gamma.
    Nor does gamma need adding when m < n: H^{-1} - I/gamma is k
    positive semidefinite rank-one terms minus k others, so on m > k
    dimensions it has an eigenvalue of each sign or a zero one, and the
    extremes of the compression bracket gamma already.  The norms are
    the largest and the inverse of the smallest eigenvalue modulus; a
    singular operator has an infinite inverse norm.

    For k pairs this costs O(n k^2 + k^3), against O(k n^3) for
    :func:`dense_hessian_inverse`; without pairs the norms are gamma and
    1/gamma with no LAPACK call, and with n <= 2k no QR call.
    """
    _validate_operator_inputs(pairs, gamma)
    if not pairs:
        return gamma, 1.0 / gamma
    k = len(pairs)
    if space.dim <= 2 * k:
        compressed = _recursion(space.weight, pairs, gamma, np.eye(space.dim))
    else:
        R = np.linalg.qr(np.column_stack([p.s for p in pairs] + [p.y for p in pairs]), mode="r")
        coords = [SimpleNamespace(s=R[:, i], y=R[:, k + i], sy=p.sy) for i, p in enumerate(pairs)]
        compressed = _recursion(space.weight, coords, gamma, np.eye(R.shape[0]))
    magnitudes = np.abs(np.linalg.eigvalsh(compressed))
    smallest = float(magnitudes.min())
    return float(magnitudes.max()), 1.0 / smallest if smallest > 0.0 else math.inf


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


def dense_hessian_inverse(space: Space, pairs: Sequence[SecantPair], gamma: float) -> np.ndarray:
    """Explicit inverse-Hessian approximation built by the update recursion.

    Starts from gamma * identity and applies the rank-two update for each
    pair, oldest first.  Outer products v w^T act as u -> v * inner(w, u),
    so in coordinates they carry the weight of the space.  The weight is
    one scalar for every coordinate, so the matrix of this self-adjoint
    operator is symmetric and its weighted norm the matrix 2-norm.
    """
    _validate_dense_inputs(space, pairs, gamma)
    n = space.dim
    w = space.weight
    eye = np.eye(n)
    H = gamma * eye
    for pair in pairs:
        rho = 1.0 / pair.sy
        V = eye - rho * np.outer(pair.y, w * pair.s)
        V_adj = eye - rho * np.outer(pair.s, w * pair.y)
        H = V_adj @ H @ V + rho * np.outer(pair.s, w * pair.s)
    return H


def dense_hessian(space: Space, pairs: Sequence[SecantPair], gamma: float) -> np.ndarray:
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
    return B


@dataclass(slots=True)
class BoundReport:
    """Computed operator norms and their comparison against known bounds.

    An audited run builds one per iteration, so it is a slot dataclass
    rather than a frozen one, whose construction costs more; callers
    treat it as read-only.
    """

    norm_h: float
    norm_h_inv: float
    bound_h: float
    bound_h_inv: float

    @property
    def ok(self) -> bool:
        """Both norms within their bounds, up to a relative slack of 1e-9."""
        slack = 1.0 + 1e-9
        return self.norm_h <= self.bound_h * slack and self.norm_h_inv <= self.bound_h_inv * slack


def cautious_bound_report(space: Space, pairs: Sequence[SecantPair], gamma: float,
                          threshold: float, m: int) -> BoundReport:
    """Audit the operator of :func:`two_loop` against the cautious method's bounds.

    With every applied pair passing the quality filter at ``threshold``
    and the seed scaling confined to [threshold, 1/threshold], the
    operator norms obey ||H^{-1}|| <= (m+1)/threshold and
    ||H|| <= 5^m * max(1, threshold^-(2m+1)).  At threshold 0 both
    bounds are +inf, and so is a bound beyond the float range, which an
    underflowing threshold gives; such a bound always holds.  The norms
    of the operator built from ``pairs`` and ``gamma`` are computed here,
    by :func:`two_loop_norms`.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    try:
        bound_h = 5.0**m * max(1.0, threshold ** -(2 * m + 1))
    except (OverflowError, ZeroDivisionError):
        bound_h = math.inf
    norm_h, norm_h_inv = two_loop_norms(space, pairs, gamma)
    return BoundReport(
        norm_h=norm_h,
        norm_h_inv=norm_h_inv,
        bound_h=bound_h,
        bound_h_inv=(m + 1) / threshold if threshold > 0.0 else math.inf,
    )
