"""Search directions via the two-loop recursion, plus operator norms.

The two-loop recursion is the production path.  :func:`two_loop_norms`
gives the exact norms of the operator it applies, ||H|| and ||H^{-1}||,
from an eigenproblem of size at most 2k x 2k on the span of the k
active pairs, at O(n k^2 + k^3) cost; :func:`cautious_bound_report`
audits the norm bounds with it at run time.  :func:`dense_hessian_inverse`
returns the same operator as an explicit n x n matrix, at O(k n^3) cost;
no library call uses it, and the tests take it as the oracle of both
(its inverse, the Hessian approximation, is built in the tests alone).
All adjoints and outer products are taken with respect to the weighted
inner product of the supplied space, not the Euclidean one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .secant_store import SecantPair
from .space import Space

DENSE_DIM_LIMIT = 2000


def two_loop(space: Space, active: Sequence[SecantPair], gamma: float, grad: np.ndarray) -> np.ndarray:
    """Direction -H * grad for the operator seeded with gamma * identity.

    ``active`` holds the pairs in storage order (oldest first); the most
    recent pair acts outermost.  Every pair must have positive curvature
    and gamma must be positive, which makes the operator positive
    definite and the result a descent direction for any nonzero grad.

    grad must be a float vector of the space, checked where it entered:
    ``minimize`` checks each evaluation's gradient once, and this
    function trusts it.  The pairs' s and y are used as stored: a
    strided view handed to ``SecantStore.push`` stays strided, and its
    products may round differently from those of a contiguous copy.

    The result is a fresh array, negated in place: with pairs it is the
    recursion's own array, a copy of grad that :func:`_recursion`
    overwrites; without pairs it is gamma * grad.  Negating in place
    gives the bits of ``-(H grad)``, the sign of a NaN entry included,
    which ``(-gamma) * grad`` would keep instead of flipping.
    """
    _validate_operator_inputs(active, gamma)
    r = _recursion(space.weight, active, gamma, grad.copy()) if active else gamma * grad
    return np.negative(r, out=r)


def _recursion(weight: float, pairs: Sequence, gamma: float, q: np.ndarray) -> np.ndarray:
    """H q by the two-loop recursion, overwriting q and returning it.

    Each pair has attributes s, y and sy = inner(s, y), oldest first; s
    and y are coordinates whose inner product is ``weight`` times the dot
    product.  q is a vector or an F-ordered block of columns, and the
    rank of q chooses each rank-one correction's update.  A vector takes
    numpy's scaled vector, whose bits define every iterate: it is formed
    by ``np.multiply`` into one scratch vector per call, then subtracted
    from or added to q in place, the bits of ``q -= y * a`` and
    ``r += s * (a - b)`` without a temporary per pair.  A block takes
    one BLAS ``dger`` call in place, A <- A + alpha x c^T, whose fused
    multiply-add rounds once where an outer product and a subtraction
    round twice.  Between the two loops q is scaled by gamma in place,
    the bits of ``gamma * q``.  ``ndarray.dot`` is the routine
    ``np.dot`` dispatches to, called without the dispatch.
    """
    block = q.ndim == 2
    if block:
        from scipy.linalg.blas import dger
    else:
        scratch = np.empty_like(q)
    coeffs = []
    for pair in reversed(pairs):
        a = weight * pair.s.dot(q) / pair.sy
        coeffs.append(a)
        if block:
            q = dger(-1.0, pair.y, a, a=q, overwrite_a=1)
        else:
            q -= np.multiply(pair.y, a, out=scratch)
    q *= gamma
    for pair, a in zip(pairs, reversed(coeffs)):
        b = weight * pair.y.dot(q) / pair.sy
        if block:
            q = dger(1.0, pair.s, a - b, a=q, overwrite_a=1)
        else:
            q += np.multiply(pair.s, a - b, out=scratch)
    return q


def two_loop_norms(space: Space, pairs: Sequence[SecantPair], gamma: float) -> tuple[float, float]:
    """(||H||, ||H^{-1}||) of the operator :func:`two_loop` applies, exactly and at low cost.

    The recursion maps a vector orthogonal to every s and y of ``pairs``
    to gamma times itself.  H is self-adjoint, so any subspace containing
    span(S, Y) is invariant, and the spectrum of H is that of its
    compression there, plus gamma when the subspace is proper.  The
    compression is the same recursion run on the pairs' coordinates in
    an orthonormal basis of such a subspace, applied to the identity of
    its dimension m = min(n, 2k), and one m x m ``dsyevd`` gives its
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

    The QR factorization and the eigenvalues are LAPACK's ``dgeqrf``
    and ``dsyevd`` (lower triangle), one call each through
    ``scipy.linalg.lapack`` with the workspace sizes LAPACK's own query
    returns.  Those are the routines and sizes under ``np.linalg.qr``
    and ``np.linalg.eigvalsh``, so they give numpy's bits without
    numpy's per-call wrapper, which costs more than LAPACK's work at
    these sizes; a smaller workspace changes the bits from 33 rows or
    129 columns on.  R is the leading block of the Fortran-ordered
    factor, so its columns are contiguous, and the compression is built
    in place in a Fortran-ordered block that ``dsyevd`` takes uncopied.
    Each of the recursion's 2k rank-one updates of that block is one
    BLAS ``dger`` call in place, whose fused multiply-add rounds once
    where an outer product and a subtraction round twice.  So the last
    bits of the norms differ from those of an outer-product update, and
    they depend on the BLAS kernel, as those of ``dgeqrf`` and
    ``dsyevd`` do; no iterate depends on them.  ``scipy.linalg`` is
    imported on the first call that has pairs, a one-time cost of
    about 0.25 s.  An eigenvalue iteration that does not converge
    raises ``np.linalg.LinAlgError``.

    For k pairs this costs O(n k^2 + k^3), against O(k n^3) for
    :func:`dense_hessian_inverse`; without pairs the norms are gamma and
    1/gamma with no LAPACK call, and with n <= 2k no QR call.
    """
    _validate_operator_inputs(pairs, gamma)
    if not pairs:
        return gamma, 1.0 / gamma
    from scipy.linalg import lapack

    k = len(pairs)
    if space.dim <= 2 * k:
        coords = pairs
    else:
        # the pairs as rows: their transpose is [S Y] in Fortran order,
        # which dgeqrf factors in place.  R is the factor's leading block
        # with the Householder vectors below its diagonal zeroed, in place
        rows = np.array([p.s for p in pairs] + [p.y for p in pairs])
        work, _ = lapack.dgeqrf_lwork(space.dim, 2 * k)
        factor, _, _, _ = lapack.dgeqrf(rows.T, lwork=int(work), overwrite_a=1)
        R = factor[:2 * k]
        np.copyto(R, 0.0, where=_strictly_lower(2 * k))
        coords = [SimpleNamespace(s=R[:, i], y=R[:, k + i], sy=p.sy) for i, p in enumerate(pairs)]
    compressed = _recursion(space.weight, coords, gamma, np.eye(min(space.dim, 2 * k), order="F"))
    work, iwork, _ = lapack.dsyevd_lwork(compressed.shape[0], compute_v=0, lower=1)
    eigenvalues, _, info = lapack.dsyevd(compressed, compute_v=0, lower=1, lwork=int(work), liwork=iwork,
                                         overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    magnitudes = [abs(v) for v in eigenvalues.tolist()]
    if math.isnan(sum(magnitudes)):
        # an overflowed compression, whose NaN eigenvalues LAPACK sorts
        # anywhere: ||H|| is NaN and no modulus is a positive smallest
        return math.nan, math.inf
    smallest = min(magnitudes)
    return max(magnitudes), 1.0 / smallest if smallest > 0.0 else math.inf


@functools.lru_cache(maxsize=None)
def _strictly_lower(m: int) -> np.ndarray:
    """Read-only boolean mask of the strictly lower triangle of an m x m matrix."""
    mask = np.tri(m, m, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


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
