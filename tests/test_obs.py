"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import pytest

from repro import obs
from repro.core.metrics import TimeSeries
from repro.obs import MetricRegistry, RunLedger, Tracer, activate, jsonable
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import _NULL_SPAN


class FakeClock:
    """Deterministic monotonic clock: advances by ``step`` per reading."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_nesting_depth_and_order(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.events_of("span")
        # Children close (and therefore log) before their parents.
        assert [s.fields["name"] for s in spans] == ["inner", "outer"]
        assert spans[0].fields["depth"] == 1
        assert spans[1].fields["depth"] == 0

    def test_timing_with_fake_clock(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            pass
        # Clock readings: tracer start, span start, span end, event stamp.
        totals = tracer.span_totals()
        assert totals["work"]["count"] == 1
        assert totals["work"]["total_s"] == pytest.approx(1.0)
        assert totals["work"]["max_s"] == pytest.approx(1.0)

    def test_totals_accumulate_and_track_max(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.span("repeat"):
                pass
        totals = tracer.span_totals()["repeat"]
        assert totals["count"] == 3
        assert totals["total_s"] == pytest.approx(3.0)

    def test_span_records_error_flag(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.events_of("span")
        assert span.fields["error"] is True

    def test_span_attrs_carried(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("replay", packets=42):
            pass
        (span,) = tracer.events_of("span")
        assert span.fields["packets"] == 42


class TestEventLog:
    def test_emit_and_query(self):
        tracer = Tracer(clock=FakeClock())
        tracer.emit("a", x=1)
        tracer.emit("b", y=2)
        tracer.emit("a", x=3)
        assert len(tracer.events_of("a")) == 2
        assert tracer.kind_counts() == {"a": 2, "b": 1}

    def test_bounding_drops_oldest(self):
        tracer = Tracer(max_events=5, clock=FakeClock())
        for i in range(12):
            tracer.emit("tick", i=i)
        assert len(tracer.events) == 5
        assert tracer.dropped == 7
        assert [e.fields["i"] for e in tracer.events] == [7, 8, 9, 10, 11]

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)


class TestNoOpPath:
    def test_disabled_by_default(self):
        assert obs.current() is None
        assert not obs.enabled()
        # These must be safe (and cheap) with no tracer installed.
        obs.emit("ignored", x=1)
        with obs.span("ignored"):
            pass

    def test_disabled_span_is_shared_singleton(self):
        # The no-op path allocates nothing: same object every call.
        assert obs.span("a") is _NULL_SPAN
        assert obs.span("b", attr=1) is _NULL_SPAN

    def test_activate_routes_and_restores(self):
        tracer = Tracer(clock=FakeClock())
        with activate(tracer) as active:
            assert active is tracer
            assert obs.current() is tracer
            obs.emit("routed", ok=True)
            with obs.span("routed-span"):
                pass
        assert obs.current() is None
        assert len(tracer.events_of("routed")) == 1
        assert len(tracer.events_of("span")) == 1

    def test_activate_nests(self):
        outer, inner = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with activate(outer):
            with activate(inner):
                obs.emit("who")
            obs.emit("who")
        assert len(inner.events_of("who")) == 1
        assert len(outer.events_of("who")) == 1

    def test_activate_installs_both_slots_and_restores(self):
        tracer, registry = Tracer(clock=FakeClock()), MetricRegistry()
        with activate(tracer, registry) as active:
            assert active is tracer
            assert obs.current() is tracer
            assert obs_metrics.current() is registry
            obs_metrics.inc("routed")
        assert obs.current() is None
        assert obs_metrics.current() is None
        assert registry.counter("routed") == 1

    def test_none_leaves_a_slot_as_it_is(self):
        tracer, registry = Tracer(clock=FakeClock()), MetricRegistry()
        with activate(metrics=registry):
            with activate(tracer):
                assert obs_metrics.current() is registry
            with activate(None, None):
                assert obs.current() is None
                assert obs_metrics.current() is registry
        assert obs_metrics.current() is None

    def test_metrics_only_form_keeps_the_tracer(self):
        tracer, registry = Tracer(clock=FakeClock()), MetricRegistry()
        with activate(tracer):
            with obs_metrics.activate(registry) as active:
                assert active is registry
                assert obs.current() is tracer
                assert obs_metrics.current() is registry
            assert obs_metrics.current() is None
            assert obs.current() is tracer


class TestLedgerMetricsBlock:
    def test_snapshot_taken_at_ledger_build(self):
        tracer = Tracer(clock=FakeClock())
        registry = MetricRegistry()
        registry.inc("late", 3)
        ledger = RunLedger.from_tracer(tracer, metrics=registry, attack="unit")
        assert ledger.metrics == {"run": registry.snapshot()}
        assert ledger.metrics["run"]["counter.late"] == 3


class TestJsonable:
    def test_scalars_pass_through(self):
        assert jsonable(5) == 5
        assert jsonable("x") == "x"
        assert jsonable(None) is None
        assert jsonable(True) is True

    def test_nonfinite_floats_stringified(self):
        assert jsonable(math.inf) == "inf"
        assert jsonable(float("nan")) == "nan"

    def test_timeseries_summarised(self):
        series = TimeSeries("qoe")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        encoded = jsonable(series)
        assert encoded["series"] == "qoe"
        assert encoded["count"] == 2

    def test_dataclass_flattened(self):
        @dataclass
        class Point:
            x: int
            y: float

        assert jsonable(Point(1, 2.5)) == {"x": 1, "y": 2.5}

    def test_fallback_is_str(self):
        assert jsonable(object).startswith("<class")


class TestRunLedger:
    def _make_ledger(self, **run_info) -> RunLedger:
        tracer = Tracer(clock=FakeClock())
        registry = MetricRegistry()
        registry.inc("widgets", 2)
        with tracer.span("phase", stage=1):
            tracer.emit("custom", value=0.5)
        return RunLedger.from_tracer(tracer, metrics=registry, **run_info)

    def test_jsonl_round_trip(self, tmp_path):
        ledger = self._make_ledger(
            attack="unit-test", params={"seed": 3}, seed=3, wall_seconds=0.1
        )
        path = tmp_path / "run.jsonl"
        ledger.to_jsonl(str(path))
        loaded = RunLedger.from_jsonl(str(path))
        assert loaded.run["attack"] == "unit-test"
        assert loaded.run["seed"] == 3
        assert loaded.run["schema"] == 1
        assert loaded.metrics["run"]["counter.widgets"] == 2
        kinds = {event["kind"] for event in loaded.events}
        assert {"custom", "span", "metrics.snapshot"} <= kinds
        # Every line must be valid standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_csv_export(self, tmp_path):
        ledger = self._make_ledger(attack="unit-test")
        path = tmp_path / "run.csv"
        ledger.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("kind,t")
        assert len(lines) == 1 + len(ledger.events)

    def test_render_smoke(self):
        ledger = self._make_ledger(attack="unit-test")
        rendered = ledger.render()
        assert "unit-test" in rendered
        assert "metrics: run" in rendered
        assert "event log" in rendered

    def test_from_jsonl_rejects_garbage(self, tmp_path):
        from repro.core.errors import ConfigurationError

        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            RunLedger.from_jsonl(str(path))

    def test_from_jsonl_requires_run_record(self, tmp_path):
        from repro.core.errors import ConfigurationError

        path = tmp_path / "norun.jsonl"
        path.write_text('{"record": "event", "kind": "x", "t": 0}\n')
        with pytest.raises(ConfigurationError):
            RunLedger.from_jsonl(str(path))


class TestInstrumentation:
    """End-to-end: real simulators emitting through the module router."""

    def _defended_capture(self, tracer: Tracer, registry=None):
        from repro.attacks import BlinkCaptureAttack

        with activate(tracer, registry):
            return BlinkCaptureAttack().run(
                horizon=40.0,
                legitimate_flows=40,
                malicious_flows=40,
                cells=16,
                defended=True,
                seed=1,
            )

    def test_defended_blink_run_leaves_audit_trail(self):
        tracer = Tracer()
        result = self._defended_capture(tracer)
        vetoes = tracer.events_of("supervisor.veto")
        assert vetoes, "fake retransmissions at packet cadence must be vetoed"
        assert all(event.fields["action"] == "reroute" for event in vetoes)
        assert not result.success
        assert result.details["reroutes_vetoed"] >= 1
        # The monitor inferred a failure; the supervisor blocked it.
        assert result.details["reroute_events"] >= 1
        assert result.details["reroutes_released"] == 0

    def test_defended_blink_ledger_is_self_contained(self, tmp_path):
        tracer, registry = Tracer(), MetricRegistry()
        self._defended_capture(tracer, registry)
        ledger = RunLedger.from_tracer(
            tracer, metrics=registry, attack="blink-capture-packet-level"
        )
        path = tmp_path / "defended.jsonl"
        ledger.to_jsonl(str(path))
        loaded = RunLedger.from_jsonl(str(path))
        assert loaded.supervisor_events()
        kinds = {event["kind"] for event in loaded.events}
        assert "span" in kinds
        assert "metrics.snapshot" in kinds
        assert set(loaded.metrics) == {"run"}
        assert any(name.startswith("gauge.blink.") for name in loaded.metrics["run"])

    def test_undefended_blink_reroute_event(self):
        from repro.attacks import BlinkCaptureAttack

        tracer = Tracer()
        with activate(tracer):
            result = BlinkCaptureAttack().run(
                horizon=40.0,
                legitimate_flows=40,
                malicious_flows=40,
                cells=16,
                seed=1,
            )
        assert result.success
        reroutes = tracer.events_of("blink.reroute")
        assert reroutes
        assert reroutes[0].fields["prefix"] == "198.51.100.0/24"
        assert tracer.events_of("blink.eviction")

    def test_pcc_rate_moves_and_mis_traced(self):
        from repro.pcc.simulator import PathModel, PccSimulation

        tracer, registry = Tracer(), MetricRegistry()
        with activate(tracer, registry):
            sim = PccSimulation(PathModel(capacity=50.0), flows=2, seed=0)
            sim.run(60)
        assert len(tracer.events_of("pcc.mi")) == 120
        assert tracer.events_of("pcc.rate_move")
        assert registry.gauge("pcc.flows") == 2
        assert registry.gauge("pcc.mis_simulated") == 60
        assert registry.gauge("pcc.aggregate_rate.count") == 60
        assert registry.gauge("pcc.flow1.oscillation_cv") == sim.rate_oscillation(1)

    def test_pytheas_ingest_and_preference_events(self):
        from repro.pytheas.controller import PytheasController
        from repro.pytheas.session import QoEReport, Session, SessionFeatures

        tracer, registry = Tracer(), MetricRegistry()
        with activate(tracer, registry):
            controller = PytheasController(["cdn-a", "cdn-b"], seed=0)
            features = SessionFeatures(asn="as1", location="loc1")
            for _ in range(4):
                controller.serve(Session(features=features))
            group_id = controller.groups.assign(Session(features=features))
            controller.ingest_reports(
                [
                    QoEReport(
                        session_id=f"s{i}",
                        group_id=group_id,
                        decision="cdn-a",
                        value=80.0,
                        time=float(i),
                    )
                    for i in range(3)
                ]
            )
        assert tracer.events_of("pytheas.ingest")
        assert tracer.events_of("pytheas.preference_change")
        assert registry.gauge("pytheas.reports_received") == 3
        assert registry.gauge("pytheas.sessions_served") == 4

    def test_netsim_run_rollup(self):
        from repro.netsim.events import EventLoop

        tracer = Tracer()
        with activate(tracer):
            loop = EventLoop()
            for i in range(10):
                loop.schedule_at(float(i), lambda: None)
            loop.run_until(20.0)
        (rollup,) = tracer.events_of("netsim.run")
        assert rollup.fields["processed"] == 10
        assert rollup.fields["queue_depth"] == 0
        assert rollup.fields["wall_s"] >= 0.0

    def test_netsim_untraced_has_no_overhead_path(self):
        from repro.netsim.events import EventLoop

        loop = EventLoop()
        loop.schedule_at(0.0, lambda: None)
        assert loop.run_until(1.0) == 1  # no tracer: nothing emitted, no error
