"""Tests for metric primitives: result statistics (repro.core.metrics)
and the counters and gauges of the run registry (repro.obs.metrics)."""

import math

import pytest

from repro.core.metrics import (
    TimeSeries,
    coefficient_of_variation,
    first_crossing_time,
    mean,
    percentile,
    stddev,
)
from repro.obs.metrics import MetricRegistry


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricRegistry()
        registry.inc("c")
        registry.inc("c", 2.5)
        assert registry.counter("c") == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricRegistry().inc("c", -1)

    def test_gauge_tracks_extremes(self):
        registry = MetricRegistry()
        registry.gauge_set("g", 5.0)
        registry.gauge_set("g", -2.0)
        assert registry.gauge("g") == -2.0
        assert registry.gauges["g"] == [-2.0, -2.0, 5.0]


class TestTimeSeries:
    def test_requires_monotone_times(self):
        series = TimeSeries("s")
        series.record(1.0, 10.0)
        with pytest.raises(ValueError):
            series.record(0.5, 11.0)

    def test_window_query(self):
        series = TimeSeries("s")
        for t in range(10):
            series.record(float(t), float(t * t))
        window = series.window(2.0, 5.0)
        assert [t for t, _ in window] == [2.0, 3.0, 4.0]

    def test_value_at_step_semantics(self):
        series = TimeSeries("s")
        series.record(1.0, 10.0)
        series.record(3.0, 30.0)
        assert series.value_at(0.5, default=-1.0) == -1.0
        assert series.value_at(2.0) == 10.0
        assert series.value_at(3.0) == 30.0

    def test_summary_contains_percentiles(self):
        series = TimeSeries("s")
        for t in range(100):
            series.record(float(t), float(t))
        summary = series.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(49.5)


class TestRegistry:
    def test_snapshot_flat_keys(self):
        registry = MetricRegistry()
        registry.inc("a")
        registry.gauge_set("b", 2.0)
        registry.observe("c", 1.0)
        snap = registry.snapshot()
        assert snap["counter.a"] == 1.0
        assert snap["gauge.b"] == 2.0
        assert snap["hist.c"]["count"] == 1


class TestStatistics:
    def test_mean_and_stddev(self):
        assert mean([1, 2, 3]) == 2
        assert stddev([2, 2, 2]) == 0.0

    def test_cv_of_constant_is_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_cv_of_zero_mean_with_spread_is_inf(self):
        assert math.isinf(coefficient_of_variation([-1, 1]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestFirstCrossing:
    def test_finds_first_crossing(self):
        times = [0, 1, 2, 3]
        values = [0, 10, 20, 30]
        assert first_crossing_time(times, values, 15) == 2

    def test_none_when_never_crossed(self):
        assert first_crossing_time([0, 1], [0, 1], 5) is None

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            first_crossing_time([0], [0, 1], 1)
