"""Bounded secant-pair storage and the cautious-update bookkeeping.

The store keeps at most ``capacity`` pairs (s, y) in first-in-first-out
order together with the scaling interval [gamma_minus, gamma_plus]
computed from the most recent accepted pair.  Pairs enter only with a
positive curvature quality and a finite rho = 1/inner(s, y); a rejected
pair leaves the stored pairs untouched and resets the scaling interval
to the degenerate (0, inf).  The filter level is a threshold in [0, 1]:
level 0, the classical method, keeps every stored pair and the
unclamped scaling.
"""

from __future__ import annotations

import math
import warnings
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

    def warn_if_rate_guard_violated(self, wolfe: bool) -> None:
        """Warn when c2 reaches the bound below which the linear-rate theory applies."""
        bound = 1.0 / (2 * self.m + 2) if wolfe else 1.0 / (2 * self.m + 1)
        if self.c2 >= bound:
            warnings.warn(
                f"c2 = {self.c2} >= {bound}; the linear-rate guarantee "
                "does not cover this configuration",
                stacklevel=2,
            )


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
    """FIFO of at most ``capacity`` pairs plus the current scaling interval."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.pairs: deque[SecantPair] = deque(maxlen=capacity)
        self.gamma_minus = 0.0
        self.gamma_plus = math.inf

    def __len__(self) -> int:
        return len(self.pairs)

    def push(self, space: Space, s, y, index: int) -> bool:
        """Store (s, y) if it carries usable curvature; return whether it did.

        A pair is stored when its quality min(sy/ss, sy/yy) is positive
        and rho = 1/sy is finite; a subnormal sy passes sy > 0 and can
        fail both.

        Acceptance appends the pair with its cached scalars, which evicts
        the oldest pair on overflow, and refreshes (gamma_minus, gamma_plus).
        Rejection leaves the pair list untouched and resets the scaling
        interval to (0, inf).
        """
        s = space.check(s)
        y = space.check(y)
        sy = space.inner_unchecked(s, y)
        ss = space.inner_unchecked(s, s)
        yy = space.inner_unchecked(y, y)
        # ss/yy can underflow to zero for subnormal vectors even when sy > 0
        quality = min(sy / ss, sy / yy) if ss != 0.0 and yy != 0.0 else 0.0
        if not quality > 0.0 or not math.isfinite(1.0 / sy):
            self.gamma_minus = 0.0
            self.gamma_plus = math.inf
            return False
        pair = SecantPair(
            s=s.copy(),
            y=y.copy(),
            sy=sy,
            ss=ss,
            yy=yy,
            quality=quality,
            index=index,
        )
        self.pairs.append(pair)
        # Barzilai-Borwein scalings; Cauchy-Schwarz orders them, but
        # rounding can flip the order by one ulp for parallel vectors
        lo, hi = sy / yy, ss / sy
        self.gamma_minus = min(lo, hi)
        self.gamma_plus = max(lo, hi)
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


def choose_seed_scaling(store: SecantStore, threshold: float, fallback: float = 1.0) -> float:
    """Scaling factor for the seed operator of the next direction.

    The preferred target is the latest gamma_minus; when the scaling
    interval is the degenerate (0, inf) pair (start of the run, or right
    after a rejected pair) the caller's ``fallback`` is targeted instead;
    the solver passes 1 at the first iteration and 1/||g_k||, the
    unit-step gradient scaling, after a rejected pair.  Carrying a stale
    scaling across a rejected pair instead of falling back turns the
    benchmark runs into a crawl.  The target is clamped into
    [gamma_minus, gamma_plus] intersected with [threshold, 1/threshold]
    when that intersection is nonempty, and into [threshold, 1/threshold]
    otherwise, so the result always lies in the threshold interval.  At
    threshold 0 that interval is [0, inf] and, since push orders
    gamma_minus <= gamma_plus, the target comes back unclamped: the
    classical scaling.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    lo, hi = threshold, (1.0 / threshold if threshold > 0.0 else math.inf)
    degenerate = store.gamma_minus == 0.0 and math.isinf(store.gamma_plus)
    target = fallback if degenerate else store.gamma_minus
    # the degenerate (0, inf) intersects to [lo, hi] itself
    ilo, ihi = max(store.gamma_minus, lo), min(store.gamma_plus, hi)
    if not ilo <= ihi:
        ilo, ihi = lo, hi
    return min(max(target, ilo), ihi)
