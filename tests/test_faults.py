"""Tests for the fault-injection subsystem (plans and injectors)."""

import json
import random

import pytest

from repro.core.errors import FaultSpecError
from repro.faults import (
    FAULT_KINDS,
    ClockFaultInjector,
    FaultPlan,
    FaultyLinkTap,
    TelemetryFault,
    coerce_plan,
    schedule_link_faults,
)
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.packet import Packet, TcpHeader
from repro.netsim.trace import Trace, TraceRecord


class TestPlanParsing:
    def test_single_clause(self):
        plan = FaultPlan.parse("telemetry-drop:p=0.1")
        assert len(plan.specs) == 1
        assert plan.specs[0].kind == "telemetry-drop"
        assert plan.specs[0].param("p") == 0.1

    def test_multi_clause_with_windows(self):
        plan = FaultPlan.parse("link-flap:t=2.0,dur=0.5;telemetry-drop:p=0.1")
        assert [s.kind for s in plan.specs] == ["link-flap", "telemetry-drop"]
        assert plan.specs[0].window() == (2.0, 2.5)

    def test_defaults_fill_in(self):
        plan = FaultPlan.parse("link-flap")
        spec = plan.specs[0]
        assert spec.param("period") == 0.2
        assert spec.param("duty") == 0.5
        assert spec.window() == (0.0, float("inf"))

    def test_round_trip_through_spec_grammar(self):
        text = "clock-skew:skew=0.2,t=1.0;timer-drop:p=0.5,match=pcc"
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.to_spec())
        assert again.specs == plan.specs

    def test_round_trip_through_json(self):
        plan = FaultPlan.parse("loss-burst:p=0.3,t=1.0", seed=9)
        again = FaultPlan.from_json(json.dumps(plan.to_json()))
        assert again.specs == plan.specs
        assert again.seed == 9

    def test_unknown_kind_names_known_kinds(self):
        with pytest.raises(FaultSpecError, match="known kinds"):
            FaultPlan.parse("gremlins:p=1.0")

    def test_unknown_param_names_allowed(self):
        with pytest.raises(FaultSpecError, match="allowed"):
            FaultPlan.parse("telemetry-drop:p=0.1,frequency=2")

    def test_missing_required_param(self):
        with pytest.raises(FaultSpecError, match="requires parameter 'p'"):
            FaultPlan.parse("telemetry-drop")

    def test_non_numeric_value(self):
        with pytest.raises(FaultSpecError, match="not a number"):
            FaultPlan.parse("telemetry-drop:p=lots")

    def test_probability_out_of_range(self):
        with pytest.raises(FaultSpecError, match=r"\[0, 1\]"):
            FaultPlan.parse("telemetry-drop:p=1.5")

    def test_empty_spec_rejected(self):
        with pytest.raises(FaultSpecError, match="empty"):
            FaultPlan.parse("  ;  ")

    def test_error_carries_offending_clause(self):
        with pytest.raises(FaultSpecError) as excinfo:
            FaultPlan.parse("telemetry-drop:p=0.1;clock-skew:warp=9")
        assert "clock-skew" in excinfo.value.clause

    def test_window_active(self):
        spec = FaultPlan.parse("loss-burst:p=0.5,t=1.0,dur=2.0").specs[0]
        assert not spec.active(0.5)
        assert spec.active(1.0)
        assert spec.active(2.9)
        assert not spec.active(3.0)


class TestCoercePlan:
    def test_none_and_empty_mean_no_faults(self):
        assert coerce_plan(None) is None
        assert coerce_plan("") is None

    def test_string_spec(self):
        plan = coerce_plan("telemetry-drop:p=0.1", seed=5)
        assert plan.seed == 5

    def test_json_string_detected(self):
        plan = coerce_plan('{"seed": 3, "faults": [{"kind": "clock-skew", "skew": 0.1}]}')
        assert plan.seed == 3
        assert plan.specs[0].kind == "clock-skew"

    def test_existing_plan_keeps_explicit_seed(self):
        plan = FaultPlan.parse("telemetry-drop:p=0.1", seed=7)
        assert coerce_plan(plan, seed=99).seed == 7

    def test_unsupported_type_rejected(self):
        with pytest.raises(FaultSpecError):
            coerce_plan(3.14)


class TestDeterminism:
    def test_rng_streams_differ_by_role(self):
        plan = FaultPlan.parse("telemetry-drop:p=0.5", seed=1)
        a = [plan.rng_for("alpha").random() for _ in range(5)]
        b = [plan.rng_for("beta").random() for _ in range(5)]
        assert a != b

    def test_rng_streams_reproduce_across_instances(self):
        first = FaultPlan.parse("telemetry-drop:p=0.5", seed=1).rng_for("x")
        second = FaultPlan.parse("telemetry-drop:p=0.5", seed=1).rng_for("x")
        assert [first.random() for _ in range(10)] == [
            second.random() for _ in range(10)
        ]

    def test_rng_for_link_decorrelates_directions(self):
        """Regression: per-link fault streams must not alias.

        The link-tap role string used to embed ``f"{src}->{dst}"``
        directly, so endpoint names containing ``->`` could collide
        across different (src, dst) splits.  The length-prefixed
        encoding keeps every direction and split distinct.
        """
        plan = FaultPlan.parse("telemetry-drop:p=0.5", seed=1)
        forward = [plan.rng_for_link("tap", "a", "b").random() for _ in range(3)]
        reverse = [plan.rng_for_link("tap", "b", "a").random() for _ in range(3)]
        assert forward != reverse
        ambiguous_a = plan.rng_for_link("tap", "a", "b->c").random()
        ambiguous_b = plan.rng_for_link("tap", "a->b", "c").random()
        assert ambiguous_a != ambiguous_b
        # Reproducible for the same tuple.
        again = [plan.rng_for_link("tap", "a", "b").random() for _ in range(3)]
        assert again == forward

    def test_telemetry_fault_replays_exactly(self):
        plan = FaultPlan.parse("telemetry-drop:p=0.3", seed=4)
        runs = []
        for _ in range(2):
            fault = TelemetryFault(plan, role="r")
            runs.append([fault.drop(float(i)) for i in range(200)])
        assert runs[0] == runs[1]
        assert any(runs[0])


def _packet(seq=100):
    return Packet(
        src="a", dst="b", payload_size=960, tcp=TcpHeader(seq=seq)
    )


class TestLinkInjectors:
    def test_loss_burst_drops_inside_window_only(self, loop):
        link = Link(loop, "a", "b")
        plan = FaultPlan.parse("loss-burst:p=1.0,t=1.0,dur=1.0", seed=1)
        tap = FaultyLinkTap(plan, link)
        assert tap.inspect(_packet(), now=0.5).action == "pass"
        assert tap.inspect(_packet(), now=1.5).action == "drop"
        assert tap.inspect(_packet(), now=2.5).action == "pass"
        assert tap.dropped == 1

    def test_corrupt_burst_scrambles_tcp_seq(self, loop):
        link = Link(loop, "a", "b")
        plan = FaultPlan.parse("corrupt-burst:p=1.0", seed=1)
        tap = FaultyLinkTap(plan, link)
        verdict = tap.inspect(_packet(seq=100), now=0.0)
        assert verdict.action == "modify"
        assert verdict.packet.tcp.seq != 100
        assert tap.corrupted == 1

    def test_reorder_burst_delays(self, loop):
        link = Link(loop, "a", "b")
        plan = FaultPlan.parse("reorder-burst:p=1.0,delay=0.25", seed=1)
        tap = FaultyLinkTap(plan, link)
        verdict = tap.inspect(_packet(), now=0.0)
        assert verdict.action == "delay"
        assert verdict.extra_delay == pytest.approx(0.25)

    def test_link_param_scopes_clause_to_one_link(self, loop):
        plan = FaultPlan.parse("loss-burst:p=1.0,link=a-b", seed=1)
        hit = FaultyLinkTap(plan, Link(loop, "a", "b"))
        miss = FaultyLinkTap(plan, Link(loop, "c", "d"))
        assert hit.inspect(_packet(), now=0.0).action == "drop"
        assert miss.inspect(_packet(), now=0.0).action == "pass"

    def test_link_down_window_schedules_transitions(self, loop):
        link = Link(loop, "a", "b")
        plan = FaultPlan.parse("link-down:t=1.0,dur=1.0")
        assert schedule_link_faults(plan, [link]) == 2
        delivered = []
        for t in (0.5, 1.5, 2.5):
            loop.schedule_at(
                t, lambda: link.transmit(_packet(), lambda p: delivered.append(p))
            )
        loop.run_until(5.0)
        stats = link.stats()
        assert stats["link.a->b.went_down"] == 1
        assert stats["link.a->b.came_up"] == 1
        assert stats["link.a->b.down_dropped"] == 1
        assert len(delivered) == 2

    def test_link_flap_alternates_state(self, loop):
        link = Link(loop, "a", "b")
        plan = FaultPlan.parse("link-flap:t=0.0,dur=1.0,period=0.5,duty=0.5")
        transitions = schedule_link_faults(plan, [link])
        assert transitions == 4  # two periods, down+up each
        loop.run_until(2.0)
        stats = link.stats()
        assert stats["link.a->b.went_down"] == 2
        assert stats["link.a->b.came_up"] == 2
        assert link.up


class TestClockInjector:
    def test_skew_stretches_delays(self):
        loop = EventLoop()
        loop.fault = ClockFaultInjector(FaultPlan.parse("clock-skew:skew=0.5"))
        fired = []
        loop.schedule_in(1.0, lambda: fired.append(loop.now), name="timer")
        loop.run_until(2.0)
        assert fired == [pytest.approx(1.5)]

    def test_timer_drop_discards_matching(self):
        loop = EventLoop()
        loop.fault = ClockFaultInjector(
            FaultPlan.parse("timer-drop:p=1.0,match=victim")
        )
        fired = []
        loop.schedule_in(1.0, lambda: fired.append("victim"), name="victim.timer")
        loop.schedule_in(1.0, lambda: fired.append("other"), name="other.timer")
        loop.run_until(2.0)
        assert fired == ["other"]

    def test_dropped_timer_handle_is_cancelled(self):
        loop = EventLoop()
        loop.fault = ClockFaultInjector(FaultPlan.parse("timer-drop:p=1.0"))
        event = loop.schedule_in(1.0, lambda: None, name="t")
        assert event.cancelled

    def test_fault_named_events_exempt(self):
        loop = EventLoop()
        loop.fault = ClockFaultInjector(FaultPlan.parse("timer-drop:p=1.0"))
        fired = []
        loop.schedule_in(1.0, lambda: fired.append(1), name="fault.transition")
        loop.run_until(2.0)
        assert fired == [1]


class TestTelemetryAdapters:
    def test_degrade_record_drops_records(self):
        plan = FaultPlan.parse("telemetry-drop:p=0.5", seed=2)
        fault = TelemetryFault(plan, role="blink")
        records = [
            TraceRecord(time=float(i), flow=("a", 1, "b", 2), size=1000)
            for i in range(400)
        ]
        kept = [r for r in map(fault.degrade_record, records) if r is not None]
        assert 100 < len(kept) < 300
        assert fault.counters()["telemetry_dropped"] == 400 - len(kept)

    def test_degrade_record_garble_flips_retransmission(self):
        plan = FaultPlan.parse("telemetry-garble:p=1.0", seed=2)
        fault = TelemetryFault(plan, role="blink")
        record = TraceRecord(
            time=0.0, flow=("a", 1, "b", 2), size=1000, is_retransmission=False
        )
        assert fault.degrade_record(record) == TraceRecord(
            time=0.0, flow=("a", 1, "b", 2), size=1000, is_retransmission=True
        )

    def test_report_filter_composes_before_inner(self):
        plan = FaultPlan.parse("telemetry-drop:p=1.0", seed=2)
        fault = TelemetryFault(plan, role="pytheas")
        inner_saw = []

        def inner(group_id, reports):
            inner_saw.extend(reports)
            return reports

        from repro.pytheas.session import QoEReport

        reports = [
            QoEReport(session_id="s", group_id="g", decision="cdn-A", value=80.0, time=1.0)
        ]
        kept = fault.report_filter(inner)("g", reports)
        assert kept == []
        assert inner_saw == []  # dropout happens ahead of the defense filter

    def test_degrade_pcc_holds_stale_reading(self):
        from repro.pcc.simulator import PathModel, PccSimulation

        plan = FaultPlan.parse("telemetry-drop:p=1.0", seed=2)
        fault = TelemetryFault(plan, role="pcc")
        simulation = PccSimulation(PathModel(capacity=100.0), flows=1, seed=0)
        from repro.faults import degrade_pcc

        degrade_pcc(simulation, fault)
        simulation.run(20)
        # Every reading dropped: the controller only ever re-observed
        # the initial stale value of 0.0 loss.
        assert fault.counters()["telemetry_dropped"] == fault.counters()["telemetry_seen"]
        assert fault.counters()["telemetry_seen"] >= 20


class TestStreamingDegrade:
    def _trace(self, n=300):
        trace = Trace(name="t")
        for i in range(n):
            trace.append(
                TraceRecord(
                    time=float(i),
                    flow=("a", 1, "b", 2),
                    size=1000,
                    is_retransmission=i % 3 == 0,
                )
            )
        return trace

    def test_degrade_record_repeats_for_a_seed(self):
        """Two gates on one plan seed degrade a record stream alike, and
        a survivor differs from its record in the flag at most."""
        spec = "telemetry-drop:p=0.2;telemetry-garble:p=0.3,scale=1.0"
        trace = self._trace()
        first = TelemetryFault(FaultPlan.parse(spec, seed=11), role="blink")
        second = TelemetryFault(FaultPlan.parse(spec, seed=11), role="blink")
        degraded = [first.degrade_record(record) for record in trace]
        assert degraded == [second.degrade_record(record) for record in trace]
        assert first.counters() == second.counters()
        assert 0 < first.dropped and 0 < first.garbled
        for record, out in zip(trace, degraded):
            if out is not None:
                assert (out.time, out.flow, out.size) == (record.time, record.flow, record.size)

    def test_degrade_record_draws_per_record(self):
        fault = TelemetryFault(
            FaultPlan.parse("telemetry-drop:p=0.0", seed=0), role="blink"
        )
        for seen, record in enumerate(self._trace(10), 1):
            assert fault.degrade_record(record) == record
            assert fault.seen == seen

    def test_degrade_record_none_on_drop(self):
        fault = TelemetryFault(
            FaultPlan.parse("telemetry-drop:p=1.0", seed=0), role="blink"
        )
        record = self._trace(1)[0]
        assert fault.degrade_record(record) is None
        assert fault.dropped == 1
