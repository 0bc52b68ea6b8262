"""Tests for the synthetic CAIDA-like trace generator (E3 substrate)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.flows.caida import (
    EVICTION_TIMEOUT,
    SyntheticCaidaConfig,
    SyntheticCaidaTrace,
    calibrate_duration_model_for_tr,
    mean_sampled_time,
)
from repro.flows.generators import emit_trace, flow_spans, poisson_flow_schedule


class TestMeanSampledTime:
    def test_includes_eviction_timeout(self):
        specs = poisson_flow_schedule("198.51.100.0/24", 30, 2.0, seed=1)
        spans, packets = flow_spans(specs, seed=2)
        trace = emit_trace(specs, seed=2)
        # The schedules give the rendered trace's spans, in its order.
        assert list(spans.items()) == list(trace.flow_activity_spans().items())
        assert packets == len(trace)
        tr = mean_sampled_time(spans)
        assert tr >= EVICTION_TIMEOUT
        assert tr == mean_sampled_time(trace.flow_activity_spans())

    def test_empty_trace_raises(self):
        with pytest.raises(ConfigurationError):
            mean_sampled_time(flow_spans([])[0])


class TestCalibration:
    def test_hits_fig2_target(self):
        model = calibrate_duration_model_for_tr(8.37, horizon=120, arrival_rate=4.0, seed=0)
        specs = poisson_flow_schedule(
            "198.51.100.0/24", 120, 4.0, duration_model=model, seed=0
        )
        measured = mean_sampled_time(emit_trace(specs, seed=1).flow_activity_spans())
        assert measured == pytest.approx(8.37, abs=0.6)

    def test_rejects_infeasible_target(self):
        with pytest.raises(ConfigurationError):
            calibrate_duration_model_for_tr(EVICTION_TIMEOUT / 2)


class TestSyntheticBackbone:
    @pytest.fixture(scope="class")
    def backbone(self):
        return SyntheticCaidaTrace(
            SyntheticCaidaConfig(prefixes=8, horizon=60.0, seed=4)
        )

    def test_prefix_count(self, backbone):
        assert len(backbone.prefixes) == 8

    def test_per_prefix_traces_cached(self, backbone):
        prefix = backbone.prefixes[0]
        assert backbone.spans_for(prefix) is backbone.spans_for(prefix)

    def test_report_sorted_by_tr(self, backbone):
        report = backbone.top_prefix_report()
        trs = [row["mean_sampled_time"] for row in report]
        assert trs == sorted(trs)
        assert all(row["flows"] > 0 for row in report)

    def test_summary_spread_spans_paper_range(self, backbone):
        summary = backbone.summary()
        # Median tR should be in the single-digit seconds, as the
        # paper reports (~5 s), and some prefixes should be slow (≥10 s).
        assert 2.0 < summary["median_tr"] < 15.0
        assert 0.0 <= summary["fraction_at_least_10s"] <= 1.0

    def test_unknown_prefix_rejected(self, backbone):
        with pytest.raises(ConfigurationError):
            backbone.spans_for("203.0.113.0/24")
