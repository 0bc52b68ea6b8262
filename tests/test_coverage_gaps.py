"""Targeted tests for public APIs not covered elsewhere."""

import pytest

from repro.core.errors import ConfigurationError


class TestEventLoopRunAll:
    def test_drains_everything(self):
        from repro.netsim.events import EventLoop

        loop = EventLoop()
        fired = []
        loop.schedule_at(5.0, lambda: fired.append(1))
        loop.schedule_at(1.0, lambda: loop.schedule_in(10.0, lambda: fired.append(2)))
        processed = loop.run_all()
        assert processed == 3
        assert fired == [1, 2]
        assert loop.now == 11.0


class TestLinkIntrospection:
    def test_stats_and_utilization(self):
        from repro.netsim.events import EventLoop
        from repro.netsim.link import Link
        from repro.netsim.packet import Packet

        loop = EventLoop()
        link = Link(loop, "a", "b", bandwidth_bps=8e6, delay_s=0.01)
        link.transmit(Packet(src="a", dst="b", payload_size=960), lambda p: None)
        assert link.queue_depth == 1
        assert link.utilization_window() > 0.0
        stats = link.stats()
        assert stats["link.a->b.accepted"] == 1.0
        loop.run_until(1.0)
        assert link.stats()["link.a->b.delivered"] == 1.0


class TestTraceMergeEdge:
    def test_merge_with_empty_trace(self):
        from repro.netsim.trace import Trace, TraceRecord
        from repro.flows.flow import FiveTuple

        a = Trace("a")
        a.append(TraceRecord(1.0, FiveTuple("x", "y", 1, 2), 100))
        merged = Trace.merge([a, Trace("empty")])
        assert len(merged) == 1


class TestWorkloadSummary:
    def test_qm_property(self):
        from repro.flows.generators import WorkloadSummary

        summary = WorkloadSummary(
            total_flows=200, malicious_flows=10, total_packets=1000,
            malicious_packet_fraction=0.05, horizon=60.0,
        )
        assert summary.qm == pytest.approx(0.05)
        empty = WorkloadSummary(0, 0, 0, 0.0, 0.0)
        assert empty.qm == 0.0


class TestDurationDistributionEstimate:
    def test_mean_estimate_positive(self):
        import random
        from repro.flows.generators import DurationDistribution

        model = DurationDistribution(median=5.0)
        assert model.mean_estimate(random.Random(0), samples=2000) > 0.0


class TestBlinkSwitchEdges:
    def test_replay_record_ignores_foreign_prefix(self):
        from repro.blink import BlinkSwitch
        from repro.flows.flow import FiveTuple
        from repro.netsim.trace import TraceRecord

        switch = BlinkSwitch({"198.51.100.0/24": ["a"]})
        record = TraceRecord(0.0, FiveTuple("x", "203.0.113.1", 1, 2), 100)
        assert switch.replay_record(record) == []

    def test_switch_reroutes_property_sorted(self):
        from repro.blink import BlinkSwitch

        switch = BlinkSwitch(
            {"198.51.100.0/24": ["a", "b"], "198.51.101.0/24": ["a", "b"]}
        )
        assert switch.reroutes == []


class TestPccRecentRates:
    def test_recent_rates_window(self):
        from repro.pcc import PccAllegroController

        controller = PccAllegroController(initial_rate=2.0)
        for _ in range(6):
            controller.complete_mi(0.0)
        assert len(controller.recent_rates(3)) == 3
        assert controller.mi_count == 6


class TestEgressReset:
    def test_reset_clears_state(self):
        from repro.core.entities import Signal, SignalKind
        from repro.egress.selector import PassiveEgressSelector

        selector = PassiveEgressSelector(["A"], min_samples=1)
        selector.observe(
            Signal(
                SignalKind.TIMING,
                "egress.sample",
                {"prefix": "p", "egress": "A", "rtt": 0.02, "lost": False},
            )
        )
        assert selector.egress_for("p") == "A"
        selector.reset()
        assert selector.egress_for("p") is None
        assert selector.switches == []

    def test_non_sample_signal_ignored(self):
        from repro.core.entities import Signal, SignalKind
        from repro.egress.selector import PassiveEgressSelector

        selector = PassiveEgressSelector(["A"])
        signal = Signal(SignalKind.TIMING, "something.else", {})
        assert selector.observe(signal) == []


class TestIcmpTapPassPath:
    def test_non_icmp_untouched(self):
        from repro.attacks.traceroute_attack import IcmpSourceRewriteTap
        from repro.netsim.packet import tcp_packet

        tap = IcmpSourceRewriteTap({"r0": "fake"})
        packet = tcp_packet("r0", "x", 1, 2, seq=0)
        verdict = tap.inspect(packet, 0.0)
        assert verdict.action == "pass"
        assert tap.rewritten == 0


class TestSelectorStatsApi:
    def test_monitored_flows_mapping(self):
        from repro.blink.selector import FlowSelector
        from repro.flows.flow import FiveTuple

        selector = FlowSelector(cells=4)
        flow = FiveTuple("10.0.0.1", "198.51.100.1", 1, 2)
        index = selector.observe(flow, now=0.0)
        assert selector.monitored_flows() == {index: flow}


class TestRonTruePathLatency:
    def test_direct_vs_detour(self):
        from repro.ron.overlay import RonOverlay, UnderlayModel

        underlay = UnderlayModel(
            latencies={("a", "b"): 0.01, ("a", "c"): 0.02, ("c", "b"): 0.02}
        )
        overlay = RonOverlay(["a", "b", "c"], underlay)
        assert overlay.true_path_latency(["a", "b"]) == pytest.approx(0.01)
        assert overlay.true_path_latency(["a", "c", "b"]) == pytest.approx(0.04)

    def test_unprobed_cost_infinite(self):
        from repro.ron.overlay import RonOverlay, UnderlayModel

        underlay = UnderlayModel(latencies={("a", "b"): 0.01})
        overlay = RonOverlay(["a", "b"], underlay)
        assert overlay.virtual_cost("a", "b") == float("inf")


class TestNethideDensityHelpers:
    def test_empty_paths(self):
        from repro.nethide.metrics import max_flow_density

        assert max_flow_density({}) == 0


class TestSweepIntegration:
    def test_sweep_drives_real_attack(self):
        """The sweep engine works against actual attack objects."""
        from repro.attacks import BlinkAnalyticalAttack
        from repro.runner import ParallelSweepExecutor, seed_cells

        def success_rate(qm):
            cells = seed_cells({"qm": qm, "tr": 8.37, "runs": 3, "horizon": 300.0}, [0, 1])
            report = ParallelSweepExecutor(jobs=1).run(BlinkAnalyticalAttack(), cells)
            return report.aggregate()["success_rate"]

        weak, strong = success_rate(0.002), success_rate(0.0525)
        assert weak < strong
        assert strong == 1.0


class TestErrorsCarryContext:
    def test_scheduling_error_fields(self):
        from repro.core.errors import SchedulingError

        error = SchedulingError("late", event_time=1.0, now=2.0)
        assert error.event_time == 1.0 and error.now == 2.0

    def test_decode_error_fields(self):
        from repro.core.errors import DecodeError

        error = DecodeError("stalled", decoded=5, remaining=2)
        assert error.decoded == 5 and error.remaining == 2

    def test_supervisor_veto_fields(self):
        from repro.core.errors import SupervisorVeto

        veto = SupervisorVeto("no", decision="d", risk=0.9)
        assert veto.decision == "d" and veto.risk == 0.9
