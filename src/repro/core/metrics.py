"""Result statistics used across simulators and benches.

Time series with percentile summaries and the scalar statistics over
them — enough to express every quantity the paper reports
(sampled-flow counts over time, rates, QoE, inversion counts).  Run
telemetry (counters, gauges, histograms) lives in
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float, presorted: bool = False) -> float:
    """Linear-interpolation percentile of ``values`` at ``q`` in [0, 100].

    Interpolates between closest ranks: rank ``q/100·(n − 1)`` of the
    sorted values, the common "linear" percentile definition.  Pass
    ``presorted=True`` when ``values`` is already in ascending order to
    skip the O(n log n) sort — callers taking several percentiles of
    the same data should sort once and reuse it.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = values if presorted else sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[int(rank)])
    weight = rank - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


class TimeSeries:
    """An append-only (time, value) series with window queries.

    Times must be non-decreasing, which every discrete-event producer in
    this library guarantees; enforcing it keeps window queries O(log n).
    """

    def __init__(self, name: str):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} requires non-decreasing times: "
                f"{time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(self._times)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Return points with ``start <= time < end``."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def value_at(self, time: float, default: float = 0.0) -> float:
        """Step-function lookup: the last value recorded at or before ``time``."""
        idx = bisect_right(self._times, time) - 1
        if idx < 0:
            return default
        return self._values[idx]

    def last(self, default: float = 0.0) -> float:
        return self._values[-1] if self._values else default

    def summary(self) -> Dict[str, float]:
        """Mean / min / max / p5 / p50 / p95 over all recorded values."""
        if not self._values:
            return {"count": 0}
        ordered = sorted(self._values)
        return {
            "count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p5": percentile(ordered, 5, presorted=True),
            "p50": percentile(ordered, 50, presorted=True),
            "p95": percentile(ordered, 95, presorted=True),
        }


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (silent 0.0 hides bugs)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    if not values:
        raise ValueError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """stddev / |mean| — the oscillation measure used in the PCC bench."""
    mu = mean(values)
    if mu == 0:
        return math.inf if stddev(values) > 0 else 0.0
    return stddev(values) / abs(mu)


def first_crossing_time(
    times: Sequence[float], values: Sequence[float], threshold: float
) -> Optional[float]:
    """First time at which ``values`` reaches ``threshold``, else None.

    Used to answer questions like "how long until 32 of Blink's
    monitored flows are malicious?" (Fig. 2 of the paper).
    """
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    for t, v in zip(times, values):
        if v >= threshold:
            return t
    return None
