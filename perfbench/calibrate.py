"""Box-speed calibration: rescale timings to the reference box's speed.

On a shared host the same pure-Python code runs at very different
speeds from one minute to the next.  On the 2-vCPU reference box the
fixed loop below took 0.025 s in one phase and 0.035-0.037 s in another
for minutes at a time, with nothing else of ours running, and a 20 s
E2 repetition went from ~5.0 s to ~6.8 s with it.

So a run times the loop before, between and after its repetitions, and
each repetition's wall times are multiplied by ``REFERENCE_S`` over the
mean loop time at its two ends: the seconds it would have taken on the
reference box in its fast phase.  The loop is the benchmark's own code,
never the program's, so a change to the program moves rescaled time
exactly as it moves wall time.  A heavier kernel (heap, dict and object
churn) tracked the drift worse: it slowed by more than the program did.

The loop runs on one core, so it tracks a one-process workload best.
``steadiness.json`` and ``steadiness-earlier.json`` keep the wall seconds
of every run beside the rescaled ones; ``README.md`` compares their
spreads per workload.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The loop's time on the reference box in its fast phase.
REFERENCE_S = 0.025

#: Loop runs per calibration point.
SAMPLES = 5

_ITERATIONS = 500_000


def kernel() -> float:
    """Run the fixed loop once; return its wall seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i
    return time.perf_counter() - started


class Calibration:
    """Loop times at the boundaries of a run's repetitions."""

    def __init__(self) -> None:
        self.points: List[float] = []

    def sample(self) -> None:
        """Take a calibration point: the median of ``SAMPLES`` loop runs."""
        self.points.append(statistics.median(kernel() for _ in range(SAMPLES)))

    def factors(self) -> List[float]:
        """Per repetition, the factor that rescales its wall times.

        Repetition ``k`` ran between points ``k`` and ``k + 1``; the box's
        speed during it is taken as the mean of the two.
        """
        return [
            REFERENCE_S / ((before + after) / 2)
            for before, after in zip(self.points, self.points[1:])
        ]
