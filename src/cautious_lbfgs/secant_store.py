"""Bounded secant-pair storage and the cautious-update bookkeeping.

The store keeps at most ``capacity`` pairs (s, y) in first-in-first-out
order together with one scalar, the target of the seed scaling (see
:class:`SecantStore`).  Pairs enter only with a positive curvature
quality and a finite rho = 1/inner(s, y); a rejected pair leaves the
stored pairs untouched and clears the scalar.  The filter level is a
threshold omega in [0, 1]: the seed scaling is projected onto [omega,
1/omega], and level 0, the classical method, keeps every stored pair
and the unclamped scaling.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .space import Space


@dataclass(frozen=True)
class CautiousParams:
    """Constants steering the cautious filter.

    c0 bounds the threshold from above, c1 and c2 shape its dependence on
    the current gradient norm, and m is the storage capacity.  When c2 is
    omitted it defaults to 1/(2m + 3), which keeps the linear-rate guard
    satisfied for every line search mode.
    """

    m: int
    c0: float = 1e-4
    c1: float = 1.0
    c2: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.m, Integral) or self.m < 0:
            raise ValueError(f"memory size must be an integer >= 0, got {self.m}")
        if not 0.0 < self.c0 <= 1.0:
            raise ValueError(f"c0 must lie in (0, 1], got {self.c0}")
        if not self.c1 > 0.0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if self.c2 is None:
            object.__setattr__(self, "c2", 1.0 / (2 * self.m + 3))
        elif not self.c2 > 0.0:
            raise ValueError(f"c2 must be positive, got {self.c2}")


@dataclass(slots=True)
class SecantPair:
    """One curvature pair with its cached scalar products.

    s is the accepted step, y the gradient difference across it, and
    ``quality`` the curvature quality min(sy/ss, sy/yy).  ``index``
    records the iteration the pair originated from.  The store builds one
    per accepted pair, so it is a slot dataclass rather than a frozen one,
    whose construction costs more; callers treat it as read-only.
    """

    s: np.ndarray
    y: np.ndarray
    sy: float
    ss: float
    yy: float
    quality: float
    index: int


def cautious_threshold(grad_norm: float, params: CautiousParams) -> float:
    """Per-iteration filter level min(c0, c1 * grad_norm**c2).

    Requires grad_norm > 0; the solver terminates before the gradient
    reaches zero, so a zero argument signals a logic error upstream.  A
    large c2 can underflow the level to 0; an overflowing power gives c0.
    """
    if not grad_norm > 0.0:
        raise ValueError(f"grad_norm must be positive, got {grad_norm}")
    try:
        return min(params.c0, params.c1 * grad_norm**params.c2)
    except OverflowError:
        return params.c0


class SecantStore:
    """FIFO of at most ``capacity`` pairs plus ``bb_scaling``, the seed scaling's target.

    That is 1 before any push, min(sy/yy, ss/sy) after an accepted pair, None after a rejected one.
    """

    def __init__(self, capacity: int):
        self.pairs: deque[SecantPair] = deque(maxlen=capacity)
        self.bb_scaling: float | None = 1.0

    def __len__(self) -> int:
        return len(self.pairs)

    def push(self, space: Space, s: np.ndarray, y: np.ndarray, index: int) -> bool:
        """Accept (s, y) if it carries usable curvature; return whether it did.

        s and y are two vectors of ``space``, float arrays of its shape,
        and the store takes ownership of them: it neither checks nor
        copies them, and an accepted pair holds the very arrays handed in,
        so the caller must not write them afterwards.  ``minimize`` hands
        over the step its ray formed and a fresh gradient difference.  A
        strided view stays strided, and its products may round
        differently from those of a contiguous copy.

        A pair is accepted when its quality min(sy/ss, sy/yy) is positive
        and rho = 1/sy is finite; a subnormal sy passes sy > 0 and can
        fail both.

        Acceptance appends the pair with its cached scalars, which evicts
        the oldest pair on overflow, and sets ``bb_scaling`` to
        min(sy/yy, ss/sy).  Rejection leaves the pair list untouched and
        sets ``bb_scaling`` to None.  A store of capacity 0, the
        Barzilai-Borwein method, accepts and rejects as any other store
        but keeps only the scalar: it builds no pair.
        """
        sy = space.inner_unchecked(s, y)
        ss = space.inner_unchecked(s, s)
        yy = space.inner_unchecked(y, y)
        # ss/yy can underflow to zero for subnormal vectors even when sy > 0
        quality = min(sy / ss, sy / yy) if ss != 0.0 and yy != 0.0 else 0.0
        if not quality > 0.0 or not math.isfinite(1.0 / sy):
            self.bb_scaling = None
            return False
        if self.pairs.maxlen:
            # positional, in field order: keywords cost more per pair
            self.pairs.append(SecantPair(s, y, sy, ss, yy, quality, index))
        # Cauchy-Schwarz makes the smaller scaling sy/yy, but rounding can
        # flip the order by one ulp for parallel vectors
        self.bb_scaling = min(sy / yy, ss / sy)
        return True

    def active(self, threshold: float) -> list[SecantPair]:
        """Stored pairs whose quality reaches ``threshold``, oldest first.

        The filter is evaluated afresh on every call, so a pair skipped at
        one threshold remains eligible at a lower one.  Ties count as
        active.  ``push`` admits only pairs of positive quality, so
        ``active(0.0)`` returns every stored pair.
        """
        return [p for p in self.pairs if p.quality >= threshold]

    def snapshot(self) -> list[dict]:
        """Scalar view of the stored pairs (vectors omitted)."""
        return [
            {"index": p.index, "sy": p.sy, "ss": p.ss, "yy": p.yy, "quality": p.quality}
            for p in self.pairs
        ]


def choose_seed_scaling(store: SecantStore, threshold: float, fallback: float) -> float:
    """Seed scaling of the next direction: its target projected onto [threshold, 1/threshold].

    The target is the store's ``bb_scaling``, or the caller's ``fallback``
    where a rejected pair cleared it: the solver passes 1/||g_k||, the
    unit-step gradient scaling.  Carrying a stale scaling across a
    rejected pair instead turns the benchmark runs into a crawl.  The
    paper clamps into [gamma-, gamma+] intersected with [threshold,
    1/threshold], gamma- and gamma+ the smaller and larger of sy/yy and
    ss/sy; when that set is nonempty, gamma- <= 1/threshold and
    threshold <= gamma+, so the projection max(gamma-, threshold) lies
    in it.  At threshold 0 the target comes back unclamped: the
    classical scaling.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    lo, hi = threshold, (1.0 / threshold if threshold > 0.0 else math.inf)
    return min(max(fallback if store.bb_scaling is None else store.bb_scaling, lo), hi)
