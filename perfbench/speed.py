"""Machine-speed reference for the benchmark's timings.

The 2-vCPU VMs this benchmark was tuned on change speed by about 40 % every
few seconds and at times stay slow for a minute, which moved whole-run
medians by 20-25 % between runs of the same code.  So the benchmark runs a
short, fixed pure-Python chunk between units of measured work and reports
every time as it would read at a fixed reference speed: an interval of
``t`` seconds during which the chunk took ``c`` seconds counts as
``t * REFERENCE_S / c``.  The chunk is the benchmark's own code, so a change
to the program cannot move it; raw wall times are logged alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

ITERATIONS = 3000
#: What one chunk takes at the reference speed (the fast mode of the VM above).
REFERENCE_S = 0.0003
#: Samples on each side of an instant that set its speed.
NEIGHBOURS = 2


def chunk_seconds() -> float:
    """Run the calibration chunk once; return how long it took."""
    started = time.perf_counter()
    table = {}
    total = 0
    for step in range(ITERATIONS):
        table[step & 255] = total
        total += step * step % 7
    return time.perf_counter() - started


class Clock:
    """Calibration samples over time, and intervals scaled by them."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self, at: float) -> None:
        """Run one chunk and file it at time ``at`` (samples come in order)."""
        self.samples.append(chunk_seconds())
        self.times.append(at)

    def calibrate(self, at: float) -> None:
        """A full neighbourhood of samples at ``at`` (before or after work)."""
        for _ in range(2 * NEIGHBOURS + 1):
            self.sample(at)

    def factor(self, at: float) -> float:
        """Reference speed over the speed of the samples nearest ``at``."""
        index = bisect.bisect_left(self.times, at)
        index = min(max(index, NEIGHBOURS), max(len(self.times) - NEIGHBOURS - 1, 0))
        near = self.samples[max(0, index - NEIGHBOURS): index + NEIGHBOURS + 1]
        return REFERENCE_S / statistics.median(near)

    def scale(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds."""
        return (end - start) * self.factor((start + end) / 2.0)
