"""Fixed reference kernels that measure the machine's current speed.

On a host shared with other jobs the same solve runs up to 1.7 times
slower while the neighbours are busy, for seconds to minutes at a time,
and the fastest of many repetitions slows down with it.  The benchmark
therefore times a kernel right after every solve and reports each
solve's time as a multiple of the kernel's: both run in the same
machine state, so the ratio keeps only the solve's own cost.

A kernel tracks a solve only when it does the same kind of work, so
there are two.  ``interp`` is interpreted steps over small numpy
vectors, the whole cost of the workloads whose time is interpreter
overhead.  ``mixed`` adds a dense LAPACK inverse and a SuperLU
factorization with a solve, for the workloads dominated by the dense
audit or by SuperLU.  Both use numpy and scipy only, never the library,
so a change to the library moves the solves and not the kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_VECTOR = 300
WARMUP_RUNS = 10


@dataclass(frozen=True)
class KernelSpec:
    """Sizes of a kernel's parts and its times on the quiet machine.

    ``ref_s`` is the kernel's median time between solves, which leave the
    caches cold, to two digits, on a 2-core Intel Xeon (model 143) in a
    quiet period, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread.
    Ratios are multiplied by it, so reported times read as seconds on
    that machine when it is quiet ("reference seconds", unit ref_s).  It
    only sets the scale and stays fixed, so that figures taken on
    different days compare.
    """

    loop: int  # interpreted steps over vectors of length _VECTOR
    dense: int  # order of the inverted SPD matrix; 0 for none
    grid: int  # side of the factorized 5-point Laplacian; 0 for none
    ref_s: float


KERNELS = {
    "interp": KernelSpec(loop=300, dense=0, grid=0, ref_s=1.5e-3),
    "mixed": KernelSpec(loop=100, dense=120, grid=14, ref_s=1.6e-3),
}


class ReferenceKernel:
    """Fixed inputs built once; ``time_ns()`` runs the kernel and times it."""

    def __init__(self, name: str) -> None:
        self.spec = KERNELS[name]
        rng = np.random.Generator(np.random.Philox(0))
        self.v = rng.standard_normal(_VECTOR)
        self.spd = self.laplacian = None
        if self.spec.dense:
            a = rng.standard_normal((self.spec.dense, self.spec.dense))
            self.spd = a @ a.T + self.spec.dense * np.eye(self.spec.dense)
        if self.spec.grid:
            t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(self.spec.grid, self.spec.grid))
            eye = sp.eye(self.spec.grid)
            self.laplacian = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
            self.rhs = np.ones(self.spec.grid**2)
        for _ in range(WARMUP_RUNS):  # the first calls load what the kernel touches
            self.time_ns()

    def run(self) -> float:
        x = self.v.copy()
        y = self.v[::-1].copy()
        for _ in range(self.spec.loop):
            a = float(x @ y) * 1e-6
            x = x - a * y
            y = 0.5 * (y + np.maximum(y, -x))
        out = float(x[0])
        if self.spd is not None:
            out += float(np.linalg.inv(self.spd)[0, 0])
        if self.laplacian is not None:
            out += float(spla.splu(self.laplacian).solve(self.rhs)[0])
        return out

    def time_ns(self) -> int:
        t0 = time.perf_counter_ns()
        self.run()
        return time.perf_counter_ns() - t0
