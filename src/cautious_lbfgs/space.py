"""Inner-product spaces that all solver arithmetic is carried out against."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class Space:
    """Finite-dimensional real vector space with a uniformly weighted inner product.

    ``weight`` is a single positive scalar applied to every coordinate:
    Euclidean space has weight 1, a uniform grid approximating L2 on the
    unit square has weight h^2.  Instances are immutable and safe to share
    across concurrent solver runs.

    :meth:`inner` and :meth:`norm` check their arguments; the unchecked
    forms hold the same formulas for arithmetic on vectors already
    checked where they entered, such as ``minimize`` on its start and on
    each evaluation's gradient.
    """

    dim: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.dim, Integral) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {self.weight!r}")

    def check(self, u) -> np.ndarray:
        """u as a float vector of the space; a complex u raises rather than lose its imaginary part."""
        u = np.asarray(u)
        if u.dtype is not _FLOAT:
            if u.dtype.kind == "c":
                raise ValueError(f"expected a real vector, got dtype {u.dtype}")
            u = u.astype(float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {u.shape}")
        return u

    def inner(self, u, v) -> float:
        """Weighted scalar product sum_i weight * u_i * v_i."""
        return self.inner_unchecked(self.check(u), self.check(v))

    def norm(self, u) -> float:
        """Norm induced by :meth:`inner`; zero iff u is the zero vector."""
        return self.norm_unchecked(self.check(u))

    def inner_unchecked(self, u: np.ndarray, v: np.ndarray) -> float:
        """:meth:`inner` of two vectors of the space, taken without checking them."""
        return self.weight * float(u.dot(v))

    def norm_unchecked(self, u: np.ndarray) -> float:
        """:meth:`norm` of a vector of the space, taken without checking it.

        This is sqrt(weight) times ``np.linalg.norm(u)`` bit for bit, by
        the path that function takes for a vector: ``ravel(order="K")``,
        then a dot product, then sqrt.  The ravel is kept because it copies
        a strided or reversed view into a contiguous vector, and the dot
        product of that copy can differ in the last bit from the dot
        product of the view itself.
        """
        v = u.ravel(order="K")
        return math.sqrt(self.weight) * math.sqrt(v.dot(v))


def make_grid_space(M: int) -> Space:
    """Space of interior-node grid functions on a uniform (M+1)x(M+1) grid.

    The grid covers the unit square with mesh width h = 1/M; only the
    (M-1)^2 interior nodes carry degrees of freedom and the inner product
    h^2 * sum(u_i * v_i) mimics the L2 product.
    """
    if not isinstance(M, Integral) or M < 2:
        raise ValueError(f"grid parameter M must be an integer >= 2, got {M!r}")
    h = 1.0 / M
    return Space(dim=(M - 1) ** 2, weight=h * h)
