"""Tests for the Blink pipeline: inference, rerouting, replay modes."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blink.pipeline import BlinkPrefixMonitor, BlinkSwitch
from repro.core.entities import Signal, SignalKind
from repro.core.system import RecordingSystem
from repro.flows.flow import FiveTuple
from repro.flows.generators import DurationDistribution, blink_attack_workload
from repro.netsim.packet import TcpFlags, tcp_packet

PREFIX = "198.51.100.0/24"


def _flow(i):
    return FiveTuple(f"10.0.{i // 250}.{i % 250 + 1}", "198.51.100.1", 1000 + i, 443)


def _signal(flow, time, retrans=False, fin=False, malicious=False, seq=None):
    return Signal(
        SignalKind.HEADER_FIELD,
        "tcp.packet",
        {
            "flow": flow,
            "retransmission": retrans,
            "fin": fin,
            "malicious": malicious,
            "seq": seq,
        },
        time=time,
    )


def _monitor(cells=8, **kwargs):
    defaults = dict(next_hops=["nh1", "nh2"], cells=cells)
    defaults.update(kwargs)
    return BlinkPrefixMonitor(PREFIX, **defaults)


class TestFailureInference:
    def test_majority_retransmission_triggers_reroute(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0))
        decisions = []
        for i in range(40):
            decisions += monitor.observe(_signal(_flow(i), time=0.5, retrans=True))
        assert len(decisions) == 1
        assert decisions[0].action == "reroute"
        assert decisions[0].value == "nh2"
        assert monitor.active_next_hop == "nh2"

    def test_below_threshold_no_reroute(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0))
        # Only a couple of flows retransmit.
        decisions = monitor.observe(_signal(_flow(0), time=0.5, retrans=True))
        assert decisions == []
        assert monitor.active_next_hop == "nh1"

    def test_holddown_suppresses_flapping(self):
        monitor = _monitor(cells=8, reroute_holddown=10.0)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0))
        first = []
        for i in range(40):
            first += monitor.observe(_signal(_flow(i), time=0.5, retrans=True))
        again = []
        for i in range(40):
            again += monitor.observe(_signal(_flow(i), time=1.0, retrans=True))
        assert len(first) == 1
        assert again == []  # within holddown

    def test_reroute_event_records_ground_truth(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0, malicious=True))
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.5, retrans=True, malicious=True))
        assert len(monitor.reroutes) == 1
        event = monitor.reroutes[0]
        assert event.malicious_monitored_ground_truth > 0
        assert event.retransmitting_flows >= monitor.failure_threshold

    def test_backup_cycles_through_next_hops(self):
        monitor = _monitor(cells=8, reroute_holddown=0.0)
        assert monitor._choose_backup() == "nh2"
        monitor.active_next_hop = "nh2"
        assert monitor._choose_backup() == "nh1"

    def test_state_snapshot_fields(self):
        monitor = _monitor()
        monitor.observe(_signal(_flow(0), time=1.0))
        state = monitor.state()
        assert state.get("prefix") == PREFIX
        assert state.get("monitored") == 1
        assert state.get("active_next_hop") == "nh1"

    def test_reset_restores_initial_state(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0, retrans=False))
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.5, retrans=True))
        monitor.reset()
        assert monitor.reroutes == []
        assert monitor.active_next_hop == "nh1"
        assert monitor.selector.occupied_count() == 0


class TestBlinkSwitch:
    def test_monitor_lookup_by_prefix(self):
        switch = BlinkSwitch({PREFIX: ["a", "b"]})
        assert switch.monitor_for("198.51.100.77") is not None
        assert switch.monitor_for("203.0.113.1") is None

    def test_replay_trace_produces_series(self):
        from repro.flows.generators import blink_attack_workload, DurationDistribution

        _, trace, _ = blink_attack_workload(
            horizon=40, legitimate_flows=60, malicious_flows=12,
            duration_model=DurationDistribution(median=3.0),
        )
        switch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        series = switch.replay_trace(trace, sample_interval=2.0)[PREFIX]
        assert len(series) > 0
        # Persistent attack flows accumulate monotonically (no reset
        # inside this short horizon): last sample should be the max.
        assert series.values[-1] == max(series.values)

    def test_network_mode_infers_from_duplicate_seq(self):
        switch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=4)
        monitor = switch.monitor_for("198.51.100.1")
        for i in range(20):
            packet = tcp_packet("10.0.0.%d" % (i + 1), "198.51.100.1", 1000 + i, 443, seq=0)
            switch.process(packet, now=0.0, node="r0")
        # Same seq again: duplicates -> retransmissions.
        decisions_before = len(switch.decisions)
        for i in range(20):
            packet = tcp_packet("10.0.0.%d" % (i + 1), "198.51.100.1", 1000 + i, 443, seq=0)
            switch.process(packet, now=0.5, node="r0")
        assert len(switch.decisions) > decisions_before
        assert monitor.active_next_hop == "b"

    def test_process_returns_active_next_hop(self):
        switch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=4)
        packet = tcp_packet("10.0.0.1", "198.51.100.1", 1000, 443, seq=0)
        assert switch.process(packet, now=0.0, node="r0") == "a"

    def test_non_tcp_ignored(self):
        from repro.netsim.packet import Packet, Protocol

        switch = BlinkSwitch({PREFIX: ["a", "b"]})
        packet = Packet(src="x", dst="198.51.100.1", protocol=Protocol.ICMP)
        assert switch.process(packet, now=0.0, node="r0") is None

    def test_requires_at_least_one_prefix(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BlinkSwitch({})


class TestStreamingReplay:
    """replay_trace over generators and the push-mode session agree
    with the retained-trace path, record for record."""

    def _workload(self):
        from repro.flows.generators import DurationDistribution, blink_attack_workload

        _, trace, _ = blink_attack_workload(
            horizon=40,
            legitimate_flows=60,
            malicious_flows=12,
            duration_model=DurationDistribution(median=3.0),
            seed=4,
        )
        return trace

    def test_generator_input_matches_trace_input(self):
        trace = self._workload()
        retained = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        streamed = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        series_a = retained.replay_trace(trace, sample_interval=2.0)[PREFIX]
        series_b = streamed.replay_trace(
            (record for record in trace), sample_interval=2.0
        )[PREFIX]
        assert series_a.times == series_b.times
        assert series_a.values == series_b.values
        assert len(retained.decisions) == len(streamed.decisions)

    def test_session_feed_matches_replay_trace(self):
        trace = self._workload()
        batch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        push = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        series_a = batch.replay_trace(trace, sample_interval=2.0)[PREFIX]
        session = push.replay_session(sample_interval=2.0)
        for record in trace:
            session.feed(record)
        series_b = session.finish()[PREFIX]
        assert series_a.times == series_b.times
        assert series_a.values == series_b.values
        assert [d.time for d in batch.decisions] == [d.time for d in push.decisions]


class TestSupervisedParity:
    """A pass-through ``supervise=`` wrapper sees Signals; the bare path
    calls ``ingest`` directly.  Both must decide identically."""

    @pytest.fixture(scope="class")
    def trace(self):
        # E2 shape, scaled down: the attack captures half of 16 cells
        # and Blink reroutes twice inside 20 s.
        return blink_attack_workload(
            PREFIX,
            horizon=20.0,
            legitimate_flows=200,
            malicious_flows=100,
            duration_model=DurationDistribution(median=3.0),
            seed=0,
        )[1]

    @staticmethod
    def _switches():
        bare = BlinkSwitch({PREFIX: ["nh1", "nh2"]}, cells=16)
        wrapped = BlinkSwitch({PREFIX: ["nh1", "nh2"]}, cells=16, supervise=RecordingSystem)
        return bare, wrapped

    def test_replay_matches(self, trace):
        bare, wrapped = self._switches()
        bare_series = bare.replay_trace(trace)[PREFIX]
        wrapped_series = wrapped.replay_trace(trace)[PREFIX]
        assert len(wrapped.drivers[PREFIX].signals) == len(trace)
        assert len(bare.reroutes) == 2
        assert bare.decisions == wrapped.decisions
        assert bare.reroutes == wrapped.reroutes
        assert bare_series.values == wrapped_series.values

    def test_dataplane_mode_matches(self, trace):
        bare, wrapped = self._switches()
        seqs = {}
        hops = ([], [])
        for record in trace:
            flow = record.flow
            seq = seqs.get(flow, 0)
            if not record.is_retransmission:
                seqs[flow] = seq + 1460
            for switch, out in zip((bare, wrapped), hops):
                packet = tcp_packet(
                    flow.src,
                    flow.dst,
                    flow.src_port,
                    flow.dst_port,
                    seq=seq,
                    flags=TcpFlags.FIN if record.is_fin_or_rst else TcpFlags.ACK,
                    malicious=record.malicious_ground_truth,
                )
                out.append(switch.process(packet, record.time, "s1"))
        assert len(wrapped.drivers[PREFIX].signals) == len(trace)
        assert bare.reroutes
        assert hops[0] == hops[1]
        assert bare.decisions == wrapped.decisions
        assert bare.reroutes == wrapped.reroutes


@functools.lru_cache(maxsize=None)
def _small_attack_trace():
    # Small enough to replay per example; the attack still makes Blink
    # reroute twice on 16 cells.
    return blink_attack_workload(
        PREFIX,
        horizon=20.0,
        legitimate_flows=60,
        malicious_flows=30,
        duration_model=DurationDistribution(median=3.0),
        seed=0,
    )[1]


def _replay(switch, trace, cuts):
    """Feed ``trace`` per record, or, with ``cuts``, as column chunks."""
    session = switch.replay_session(sample_interval=0.5)
    if cuts is None:
        for record in trace:
            session.feed(record)
    else:
        records = list(trace)
        bounds = [0] + sorted(min(cut, len(records)) for cut in cuts) + [len(records)]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = records[lo:hi]
            session.feed_batch(
                [r.time for r in chunk],
                [r.flow for r in chunk],
                [r.is_retransmission for r in chunk],
                [r.is_fin_or_rst for r in chunk],
                [r.malicious_ground_truth for r in chunk],
            )
    series = session.finish()[PREFIX]
    monitor = switch.monitors[PREFIX]
    return (
        series.times,
        series.values,
        session.packets,
        switch.decisions,
        monitor.reroutes,
        monitor.selector.stats,
        switch.metrics.snapshot(),
    )


class TestFeedBatch:
    """feed_batch over any chunking is per-record feed."""

    @given(
        cuts=st.lists(st.integers(min_value=0, max_value=4500), max_size=8),
        supervised=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunked_equals_per_record(self, cuts, supervised):
        trace = _small_attack_trace()
        supervise = RecordingSystem if supervised else None

        def switch():
            return BlinkSwitch({PREFIX: ["nh1", "nh2"]}, cells=16, supervise=supervise)

        expected = _replay(switch(), trace, None)
        assert len(expected[4]) == 2
        assert _replay(switch(), trace, cuts) == expected

    def test_unmatched_destinations_are_counted_not_delivered(self):
        switch = BlinkSwitch({PREFIX: ["nh1", "nh2"]}, cells=8)
        session = switch.replay_session()
        outside = FiveTuple("10.0.0.1", "203.0.113.9", 1000, 443)
        session.feed_batch([0.0, 1.5], [outside, _flow(1)], [False, False],
                           [False, False], [False, False])
        assert session.packets == 2
        assert switch.monitors[PREFIX].selector.stats.installs == 1
