"""A fixed pure-Python kernel that measures how fast the host runs now.

The 2-vCPU virtual machine this benchmark was written on changes speed
by up to 40% in phases of 20 to 60 s, with nothing else running in it:
a fixed loop read 6.4 ms per pass for a minute, then 9 ms.  CPU time moves with
wall time, so the phases are not stolen time, and they are longer than
a run, so more ops per run cannot average them out.  The harness
therefore times this kernel between ops and reports the timed
end-to-end metrics at reference host speed: raw time x ``REFERENCE_MS``
/ the run's median kernel time.  fibercode never runs inside the
kernel, so a change to fibercode moves scaled and raw numbers alike;
the raw numbers are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_MS = 10.0
"""Kernel time that defines reference host speed: about its median on
the reference host (2-vCPU Xeon at 2.1 GHz, Python 3.11.7), where it
ranged from 8 to 13 ms."""

MIN_GAP_S = 0.5


def kernel() -> int:
    """Interpreter-bound integer work, like fibercode's inner loops."""
    acc = 0
    for i in range(120_000):
        acc ^= i * i
    return acc


def kernel_ms(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel passes, in ms."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


class Yardstick:
    """Kernel samples of one run, at most one per ``MIN_GAP_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last >= MIN_GAP_S:
            self.samples.append(kernel_ms())
            self._last = perf_counter()

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Multiply a raw time by this to get it at reference host speed."""
        return REFERENCE_MS / self.median_ms()
