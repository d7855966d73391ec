"""Host-speed calibration: times reported at a fixed reference speed.

On a shared host the speed a process gets drifts by 20-40 % over a few
seconds as neighbours come and go, which no amount of repetition inside a
15-second run averages away.  A fixed reference kernel, made only of the
benchmark's own code and library calls the program cannot reconfigure
(a pure-Python dict loop, many small numpy calls, passes over a few MB
of memory, a small HiGHS LP through scipy), is timed right before and
right after every timed interval.  Its mean over the two is the host's speed for that interval,
and :meth:`HostSpeed.scale` turns a measured duration into seconds at the
reference speed::

    scaled = measured * REFERENCE_S / kernel_time

A program change moves the scaled times exactly as it moves the raw ones,
since the kernel does not touch the program; a slower or faster host
moves the kernel with it and cancels out.  The raw times stay in the
``--out`` record and ``host.kernel_s`` reports the kernel's median.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np
from scipy.optimize import linprog

#: A fixed round figure for the kernel's time on a quiet host; a scaled
#: time is what the interval would have taken at that speed.  On the 2-CPU
#: x86-64 host at 2.0 GHz the bounds were set on (Python 3.11, numpy 2.4,
#: scipy 1.17) the kernel's median per run was 0.026-0.031 s.
REFERENCE_S = 0.020


class HostSpeed:
    """The reference kernel and the samples it has taken so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._block = rng.random(1 << 19)
        self._small = rng.random(64)
        self._out = np.empty_like(self._block)
        self._lp = (-rng.random(120), rng.random((40, 120)))
        self.samples: List[float] = []
        for _ in range(3):  # warm the caches and scipy's imports
            self._kernel()

    def _kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            counts: dict = {}
            for i in range(20_000):
                counts[i % 997] = counts.get(i % 997, 0) + i * i % 7
            small = self._small
            for _ in range(1_000):
                np.flatnonzero(small > 0.5).sum()
            for _ in range(8):
                np.multiply(self._block, 1.0001, out=self._out)
                self._out.sum()
            c, a_ub = self._lp
            linprog(c, A_ub=a_ub, b_ub=a_ub.sum(axis=1) * 0.5, bounds=(0, 1), method="highs")
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> float:
        """Time the kernel once and remember it."""
        t = self._kernel()
        self.samples.append(t)
        return t

    @staticmethod
    def scale(measured: float, before: float, after: float) -> float:
        """``measured`` seconds, bracketed by kernel times ``before`` and
        ``after``, in seconds at the reference speed."""
        return measured * REFERENCE_S * 2.0 / (before + after)

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else float("nan")
