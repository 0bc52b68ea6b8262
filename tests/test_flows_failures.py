"""Tests for the genuine-failure workload generator."""

import pytest

from repro.core.errors import ConfigurationError
from repro.flows.failures import FailureEpisode, emit_failure_trace
from repro.flows.generators import poisson_flow_schedule


@pytest.fixture(scope="module")
def schedule():
    return poisson_flow_schedule(
        "198.51.100.0/24", horizon=60.0, arrival_rate=3.0, seed=1
    )


class TestFailureEpisode:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureEpisode(start=-1.0, duration=5.0)
        with pytest.raises(ConfigurationError):
            FailureEpisode(start=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            FailureEpisode(start=0.0, duration=1.0, affected_fraction=0.0)

    def test_end(self):
        assert FailureEpisode(start=10.0, duration=5.0).end == 15.0


class TestFailureTrace:
    def test_retransmissions_only_during_episode(self, schedule):
        episode = FailureEpisode(start=20.0, duration=10.0)
        trace = emit_failure_trace(schedule, episode, seed=2)
        for record in trace:
            if record.is_retransmission:
                assert episode.start <= record.time < episode.end

    def test_retransmission_gaps_respect_rto_floor(self, schedule):
        """The key property for the E11 false-positive evaluation:
        genuine retransmissions never arrive faster than min_rto after
        the failure."""
        episode = FailureEpisode(start=20.0, duration=15.0)
        trace = emit_failure_trace(schedule, episode, min_rto=1.0, seed=3)
        retrans = [r for r in trace if r.is_retransmission]
        assert retrans
        assert all(r.time >= episode.start + 1.0 for r in retrans)

    def test_backoff_doubles_per_flow(self, schedule):
        episode = FailureEpisode(start=10.0, duration=40.0)
        trace = emit_failure_trace(schedule, episode, seed=4, max_retransmissions=4)
        by_flow = {}
        for record in trace:
            if record.is_retransmission:
                by_flow.setdefault(record.flow, []).append(record.time)
        multi = [times for times in by_flow.values() if len(times) >= 3]
        assert multi
        for times in multi:
            gaps = [b - a for a, b in zip(times, times[1:])]
            for first, second in zip(gaps, gaps[1:]):
                assert second == pytest.approx(2 * first, rel=1e-6)

    def test_unaffected_flows_keep_sending(self, schedule):
        episode = FailureEpisode(start=20.0, duration=10.0, affected_fraction=0.3)
        trace = emit_failure_trace(schedule, episode, seed=5)
        normal = [
            r
            for r in trace
            if episode.start <= r.time < episode.end and not r.is_retransmission
        ]
        assert normal  # the 70% unaffected flows still send data

    def test_traffic_resumes_after_recovery(self, schedule):
        episode = FailureEpisode(start=10.0, duration=5.0)
        trace = emit_failure_trace(schedule, episode, seed=6)
        after = [r for r in trace if episode.end <= r.time < 60.0]
        assert len(after) > 0
        assert all(not r.is_retransmission for r in after)

    def test_blink_defense_accepts_genuine_failure(self, schedule):
        """End to end: the RTO-plausibility supervisor lets a genuine
        failure's reroute through (no false positive)."""
        from repro.blink import BlinkPrefixMonitor
        from repro.core import Signal, SignalKind
        from repro.defenses import supervised_blink

        episode = FailureEpisode(start=30.0, duration=20.0)
        busy = poisson_flow_schedule(
            "198.51.100.0/24", horizon=60.0, arrival_rate=20.0, seed=9
        )
        trace = emit_failure_trace(busy, episode, seed=9)
        monitor = BlinkPrefixMonitor(
            "198.51.100.0/24", ["nh1", "nh2"], cells=16, retransmission_window=2.0
        )
        supervised = supervised_blink(monitor)
        released = []
        for record in trace:
            released += supervised.observe(
                Signal(
                    SignalKind.HEADER_FIELD,
                    "tcp.packet",
                    {
                        "flow": record.flow,
                        "retransmission": record.is_retransmission,
                        "fin": record.is_fin_or_rst,
                    },
                    time=record.time,
                )
            )
        assert released, "genuine failure must still trigger a reroute"
        assert supervised.suppressed == []
