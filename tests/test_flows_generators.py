"""Tests for workload generation."""

import pytest

from repro.core.errors import ConfigurationError
from repro.flows.generators import (
    DurationDistribution,
    FlowSpec,
    blink_attack_workload,
    emit_trace,
    malicious_flow_schedule,
    poisson_flow_schedule,
    steady_state_flow_schedule,
    summarize_workload,
)
from repro.flows.flow import FiveTuple

import random


class TestFlowSpec:
    def test_validation(self):
        flow = FiveTuple("a", "b", 1, 2)
        with pytest.raises(ConfigurationError):
            FlowSpec(flow, start=0.0, duration=-1.0)
        with pytest.raises(ConfigurationError):
            FlowSpec(flow, start=0.0, duration=1.0, packet_rate=0)
        with pytest.raises(ConfigurationError):
            FlowSpec(flow, start=0.0, duration=1.0, retransmit_probability=1.5)

    def test_end_time(self):
        spec = FlowSpec(FiveTuple("a", "b", 1, 2), start=3.0, duration=2.0)
        assert spec.end == 5.0


class TestDurationDistribution:
    def test_median_roughly_matches(self):
        dist = DurationDistribution(median=5.0, tail_probability=0.0)
        rng = random.Random(0)
        samples = sorted(dist.sample(rng) for _ in range(4001))
        assert 4.0 < samples[2000] < 6.0

    def test_tail_extends_mean(self):
        rng = random.Random(0)
        no_tail = DurationDistribution(median=5.0, tail_probability=0.0)
        with_tail = DurationDistribution(median=5.0, tail_probability=0.3)
        assert with_tail.mean_estimate(rng, 5000) > no_tail.mean_estimate(
            random.Random(0), 5000
        )

    def test_max_duration_clamps(self):
        dist = DurationDistribution(median=5.0, max_duration=10.0)
        rng = random.Random(1)
        assert all(dist.sample(rng) <= 10.0 for _ in range(2000))


class TestPoissonSchedule:
    def test_arrival_count_near_expectation(self):
        specs = poisson_flow_schedule("198.51.100.0/24", horizon=100, arrival_rate=5.0)
        assert 400 < len(specs) < 600

    def test_all_destinations_in_prefix(self):
        from repro.flows.flow import ip_in_prefix

        specs = poisson_flow_schedule("198.51.100.0/24", horizon=20, arrival_rate=2.0)
        assert all(ip_in_prefix(s.flow.dst, "198.51.100.0/24") for s in specs)

    def test_deterministic_per_seed(self):
        a = poisson_flow_schedule("198.51.100.0/24", 30, 2.0, seed=5)
        b = poisson_flow_schedule("198.51.100.0/24", 30, 2.0, seed=5)
        assert [s.flow for s in a] == [s.flow for s in b]


class TestMaliciousSchedule:
    def test_flows_never_fin_and_constant_rate(self):
        specs = malicious_flow_schedule("198.51.100.0/24", count=10, horizon=60)
        assert all(s.malicious for s in specs)
        assert all(not s.sends_fin for s in specs)
        assert all(s.constant_rate for s in specs)
        assert all(s.retransmit_probability > 0 for s in specs)

    def test_flows_span_horizon(self):
        specs = malicious_flow_schedule("198.51.100.0/24", count=5, horizon=60)
        assert all(s.end >= 60 for s in specs)


class TestSteadyState:
    def test_constant_concurrency(self):
        specs = steady_state_flow_schedule(
            "198.51.100.0/24", concurrent_flows=20, horizon=50
        )
        # At any probe time, exactly 20 flows should be active.
        for probe in (5.0, 25.0, 45.0):
            active = sum(1 for s in specs if s.start <= probe < s.end)
            assert active == 20

    def test_chained_flows_do_not_overlap_within_slot(self):
        specs = steady_state_flow_schedule(
            "198.51.100.0/24", concurrent_flows=1, horizon=30
        )
        ordered = sorted(specs, key=lambda s: s.start)
        for a, b in zip(ordered, ordered[1:]):
            assert b.start == pytest.approx(a.end)


class TestEmitTrace:
    def test_constant_rate_gaps_are_constant(self):
        flow = FiveTuple("a", "198.51.100.1", 1, 2)
        spec = FlowSpec(flow, 0.0, 10.0, packet_rate=2.0, constant_rate=True, sends_fin=False)
        trace = emit_trace([spec], seed=0)
        times = [r.time for r in trace if r.flow == flow]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.5) for g in gaps)

    def test_fin_emitted_when_requested(self):
        flow = FiveTuple("a", "198.51.100.1", 1, 2)
        spec = FlowSpec(flow, 0.0, 5.0, packet_rate=1.0, sends_fin=True)
        trace = emit_trace([spec], seed=0)
        assert trace[len(trace) - 1].is_fin_or_rst

    def test_retransmission_markers_present(self):
        flow = FiveTuple("a", "198.51.100.1", 1, 2)
        spec = FlowSpec(
            flow, 0.0, 50.0, packet_rate=4.0, retransmit_probability=0.5, sends_fin=False
        )
        trace = emit_trace([spec], seed=1)
        retrans = sum(1 for r in trace if r.is_retransmission)
        assert 0.3 < retrans / len(trace) < 0.7

    def test_records_time_ordered(self):
        specs = poisson_flow_schedule("198.51.100.0/24", 20, 3.0, seed=2)
        trace = emit_trace(specs, seed=3)
        times = [r.time for r in trace]
        assert times == sorted(times)


class TestBlinkWorkload:
    def test_qm_matches_paper_setup(self):
        specs, trace, summary = blink_attack_workload(
            horizon=30, legitimate_flows=100, malicious_flows=5
        )
        assert summary.malicious_flows == 5
        assert len(trace) > 0
        assert 0.0 < summary.malicious_packet_fraction < 0.2
