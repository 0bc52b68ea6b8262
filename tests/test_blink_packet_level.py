"""The event-driven packet-level Blink driver and its determinism.

The acceptance property of the scheduler work: the packet-level Blink
experiment produces *byte-identical* results (canonical report hashes)
under the heap and calendar schedulers, across a grid of seeds and
parameters — workload shape, driver mode, fault gates and all.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blink import packet_level
from repro.blink.packet_level import (
    PacketLevelReport,
    blink_attack_specs,
    packet_level_experiment,
)
from repro.core.errors import SimulationError
from repro.faults import FaultPlan
from repro.faults.injectors import TelemetryFault
from repro.flows.flow import FiveTuple
from repro.flows.generators import (
    FlowSpec,
    emit_trace,
    flow_packet_schedule,
    flow_stream_seed,
    iter_flow_schedules,
)
from repro.netsim.events import DEFAULT_SCHEDULER, EventLoop
from repro.netsim.trace import StreamingTraceAggregator
from repro.obs import metrics as obs_metrics

# Small-but-nontrivial scale: ~45k packets, a handful of resets.
SMALL = dict(horizon=90.0, legitimate_flows=120, malicious_flows=7)


def small_run(**overrides) -> PacketLevelReport:
    params = dict(SMALL)
    params.update(overrides)
    return packet_level_experiment(**params)


class TestCrossSchedulerDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_report_hash_identical_across_schedulers(self, seed):
        heap = small_run(seed=seed, scheduler="heap")
        calendar = small_run(seed=seed, scheduler="calendar")
        assert heap.report_hash == calendar.report_hash
        assert heap.packets == calendar.packets > 10_000
        assert heap.events == calendar.events

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sample_interval": 0.5},
            {"cells": 16},
            {"packet_rate": 4.0, "horizon": 45.0},
            {"with_trace": False},
            {"preload": True},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_parameter_grid_parity(self, overrides):
        heap = small_run(seed=3, scheduler="heap", **overrides)
        calendar = small_run(seed=3, scheduler="calendar", **overrides)
        assert heap.report_hash == calendar.report_hash

    def test_parity_under_telemetry_fault(self):
        reports = {}
        for scheduler in ("heap", "calendar"):
            plan = FaultPlan.parse(
                "telemetry-drop:p=0.05;telemetry-garble:p=0.05,scale=1.0",
                seed=9,
            )
            reports[scheduler] = small_run(
                seed=1, scheduler=scheduler, fault=TelemetryFault(plan, role="blink")
            )
        assert reports["heap"].report_hash == reports["calendar"].report_hash

    def test_different_seeds_differ(self):
        assert small_run(seed=0).report_hash != small_run(seed=1).report_hash

    def test_scheduler_not_part_of_hash(self):
        report = small_run(seed=0, scheduler="calendar")
        assert "calendar" not in str(sorted(report.canonical().items()))
        assert report.scheduler == "calendar"


@functools.lru_cache(maxsize=None)
def _single_shard_baseline(scheduler: str, **overrides) -> PacketLevelReport:
    return small_run(seed=3, scheduler=scheduler, **overrides)


class TestShardedDeterminism:
    """The sharded engine's contract: byte-identical reports at every
    shard count, across schedulers and driver modes."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_shard_grid_parity(self, shards, scheduler):
        base = _single_shard_baseline(scheduler)
        run = small_run(seed=3, scheduler=scheduler, shards=shards)
        assert run.report_hash == base.report_hash
        assert run.packets == base.packets
        assert run.events == base.events
        assert run.shards == shards

    @pytest.mark.parametrize(
        "overrides",
        [
            {"preload": True},
            {"with_trace": False},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_mode_grid_parity(self, overrides):
        base = _single_shard_baseline("heap", **overrides)
        run = small_run(seed=3, scheduler="heap", shards=2, **overrides)
        assert run.report_hash == base.report_hash

    def test_parity_under_telemetry_fault(self):
        reports = {}
        for shards in (1, 2):
            plan = FaultPlan.parse(
                "telemetry-drop:p=0.05;telemetry-garble:p=0.05,scale=1.0",
                seed=9,
            )
            reports[shards] = small_run(
                seed=1, shards=shards, fault=TelemetryFault(plan, role="blink")
            )
        assert reports[1].report_hash == reports[2].report_hash

    def test_shards_not_part_of_hash(self):
        run = small_run(seed=3, scheduler="heap", shards=4)
        assert run.shards == 4
        assert "shards" not in dict(run.canonical())
        assert run.report_hash == _single_shard_baseline("heap").report_hash

    @pytest.mark.usefixtures("retired_engine_env")
    def test_shard_variable_is_ignored(self):
        assert small_run(seed=3, horizon=10.0).shards == 1


def _outcome(report: PacketLevelReport) -> tuple:
    return report.report_hash, report.packets, report.events


class TestLoopFreeParity:
    """The default 1-shard path merges schedules without an event loop;
    it must report exactly what either scheduler's loop reports."""

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_matches_both_schedulers(self, seed):
        merged = small_run(seed=seed)
        assert merged.scheduler == "merge"
        for scheduler in ("heap", "calendar"):
            assert _outcome(small_run(seed=seed, scheduler=scheduler)) == _outcome(merged)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sample_interval": 0.5},
            {"cells": 16},
            {"packet_rate": 4.0, "horizon": 45.0},
            {"with_trace": False},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_parameter_grid(self, overrides):
        merged = small_run(seed=3, **overrides)
        assert merged.scheduler == "merge"
        for scheduler in ("heap", "calendar"):
            loop = _single_shard_baseline(scheduler, **overrides)
            assert _outcome(loop) == _outcome(merged)

    def test_telemetry_fault(self):
        for seed in (1, 2):
            outcomes = {}
            for scheduler in (None, "heap", "calendar"):
                plan = FaultPlan.parse(
                    "telemetry-drop:p=0.05;telemetry-garble:p=0.05,scale=1.0",
                    seed=9,
                )
                fault = TelemetryFault(plan, role="blink")
                report = small_run(seed=seed, scheduler=scheduler, fault=fault)
                outcomes[scheduler] = _outcome(report), fault.counters()
            assert outcomes[None] == outcomes["heap"] == outcomes["calendar"]

    def test_solve_counters_repeat_and_add_up(self):
        """The per-cell solve counts its cells and full-chain rows; with
        the ignored collisions they make every row, and a rerun repeats
        them exactly."""
        snapshots = []
        for _ in range(2):
            registry = obs_metrics.MetricRegistry()
            with obs_metrics.activate(registry):
                report = small_run(seed=3, cells=16)
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]
        counts = snapshots[0]
        full_chain = counts["counter.blink.solve.full_chain_rows"]
        ignored = counts[f"gauge.blink.{obs_metrics.label(report.prefix)}.collisions_ignored"]
        assert 0 < full_chain < report.packets
        assert full_chain + ignored == report.packets
        assert 16 <= counts["counter.blink.solve.cells"] <= 16 * (1 + counts[
            f"gauge.blink.{obs_metrics.label(report.prefix)}.resets"])
        assert counts["counter.netsim.merge.records"] == report.packets

    def test_default_path_never_enters_the_loop(self, monkeypatch):
        expected = _single_shard_baseline("calendar")

        def refuse(*args, **kwargs):
            raise AssertionError("the default path ran the event loop")

        monkeypatch.setattr(EventLoop, "run_until", refuse)
        assert _outcome(small_run(seed=3)) == _outcome(expected)
        with pytest.raises(AssertionError, match="event loop"):
            small_run(seed=3, scheduler="calendar")

    @pytest.mark.parametrize(
        "overrides",
        [{"preload": True}],
        ids=lambda o: ",".join(o),
    )
    def test_loop_modes_keep_the_loop(self, overrides):
        report = small_run(seed=3, horizon=10.0, **overrides)
        assert report.scheduler == DEFAULT_SCHEDULER

    @pytest.mark.usefixtures("retired_engine_env")
    def test_scheduler_variable_is_ignored(self):
        assert small_run(seed=3, horizon=10.0).scheduler == "merge"

    @pytest.mark.parametrize(
        "scheduler, shards",
        [(None, 1), ("calendar", 1), (None, 2)],
        ids=["None", "calendar", "shards=2"],
    )
    def test_event_guard_raises(self, monkeypatch, scheduler, shards):
        monkeypatch.setattr(packet_level, "MAX_EVENTS", 1000)
        with pytest.raises(SimulationError, match="max_events=1000"):
            small_run(seed=3, scheduler=scheduler, shards=shards)


class TestDriverShape:
    def test_report_fields_populated(self):
        report = small_run(seed=0)
        # The steady-state pool replaces finished flows, so the spec
        # count well exceeds the concurrent population.
        assert report.flows > SMALL["legitimate_flows"] + SMALL["malicious_flows"]
        assert report.malicious_flows == SMALL["malicious_flows"]
        assert 0 < report.qm < 1
        assert report.events >= report.packets
        assert report.sample_times and len(report.sample_times) == len(
            report.sample_values
        )
        assert report.trace_summary["packets"] == report.packets
        assert report.wall_seconds > 0
        assert report.events_per_second > 0

    def test_engine_only_skips_blink_and_trace(self):
        report = small_run(seed=0, with_trace=False)
        assert report.sample_times == ()
        assert report.decisions == 0
        assert report.trace_summary == {}
        assert report.packets > 0

    def test_specs_match_offline_workload_helper(self):
        from repro.flows import blink_attack_workload

        specs = blink_attack_specs(seed=5, **SMALL)
        offline_specs, _, _ = blink_attack_workload(
            seed=5,
            horizon=SMALL["horizon"],
            legitimate_flows=SMALL["legitimate_flows"],
            malicious_flows=SMALL["malicious_flows"],
        )
        assert specs == offline_specs


class TestBatchScalarEquivalence:
    """The bulk schedule path reproduces emit_trace draw for draw."""

    def test_iter_flow_schedules_matches_emit_trace(self):
        specs = blink_attack_specs(seed=2, **SMALL)
        trace = emit_trace(specs, seed=7)
        rebuilt = []
        for spec, times, flags in iter_flow_schedules(specs, seed=7):
            for t, is_retrans in zip(times, flags):
                rebuilt.append((t, spec.flow, is_retrans, False))
            if spec.sends_fin:
                rebuilt.append((spec.end, spec.flow, False, True))
        rebuilt.sort(key=lambda item: item[0])
        assert len(rebuilt) == len(trace)
        for record, (t, flow, retrans, fin) in zip(trace, rebuilt):
            assert record.time == t
            assert record.flow == flow
            assert record.is_retransmission == retrans
            assert record.is_fin_or_rst == fin

    def test_one_generator_reseeded_equals_one_per_flow(self):
        specs = blink_attack_specs(seed=4, **SMALL)[:300]
        fresh = [
            (spec, *flow_packet_schedule(spec, random.Random(flow_stream_seed(9, spec))))
            for spec in specs
        ]
        assert list(iter_flow_schedules(specs, seed=9)) == fresh


HORIZON = 5.0


def _spec(i, start, duration, fin=True, malicious=False, retrans=0.3, constant=False):
    return FlowSpec(
        flow=FiveTuple(f"10.1.0.{i + 1}", "198.51.100.7", 2000 + i, 443),
        start=start,
        duration=duration,
        packet_rate=3.0,
        malicious=malicious,
        retransmit_probability=retrans,
        sends_fin=fin,
        constant_rate=constant,
    )


#: One flow per case the per-flow accounting must clip right.
EDGE_SPECS = [
    _spec(0, 0.0, 8.0),                      # cut mid-schedule, FIN past
    _spec(1, 1.0, 4.0),                      # FIN exactly at the horizon
    _spec(2, 2.5, 2.5, constant=True),       # FIN at the horizon, paced
    _spec(3, 4.0, 3.0, malicious=True, fin=False),  # cut, never FINs
    _spec(4, 3.0, 0.0),                      # FIN only, no data packet
    _spec(5, 3.0, 0.0, fin=False),           # admitted, no row at all
    _spec(6, HORIZON, 1.0),                  # first row at the horizon
    _spec(0, 6.0, 1.0),                      # same 5-tuple, after the horizon
    _spec(1, 0.5, 0.8, malicious=True),      # same 5-tuple as 1, earlier
]


def _aggregator_state(aggregator):
    return aggregator.summary(), aggregator.points, aggregator.flows


def _per_flow_vs_per_row(specs, seed=3, horizon=HORIZON):
    """Aggregator state of ``_run_merged`` and of per-row ``observe`` over
    the same merged records."""
    merged = StreamingTraceAggregator(name="a")
    packet_level._run_merged(list(specs), seed, horizon, merged, None, None)
    order = sorted(range(len(specs)), key=lambda i: (specs[i].start, i))
    admitted = [specs[i] for i in order if specs[i].start <= horizon]
    per_row = StreamingTraceAggregator(name="a")
    for r in packet_level.merged_records(admitted, seed, horizon=horizon):
        per_row.observe(
            r.time, r.flow, r.size, r.observation_point, r.is_retransmission,
            r.is_fin_or_rst, r.malicious_ground_truth,
        )
    return _aggregator_state(merged), _aggregator_state(per_row)


class TestPerFlowTraceAccounting:
    """The loop-free path accounts each flow's rows once; the result
    must be per-row observe's over the merged records."""

    def test_edge_specs_cover_every_clipping_case(self):
        merged, per_row = _per_flow_vs_per_row(EDGE_SPECS)
        assert merged == per_row
        summary, points, flows = merged
        # Spec 5 has no row; specs 7 and 8 share 5-tuples with 0 and 1.
        assert flows == {EDGE_SPECS[i].flow for i in (0, 1, 2, 3, 4, 6)}
        # The FINs at or before the horizon: specs 1, 2, 4 and 8.
        assert summary["fin_rst"] == 4
        assert (summary["first_time"], summary["last_time"]) == (0.0, HORIZON)
        assert 0 < summary["malicious_packets"] < summary["packets"] == points["ingress"]

    @given(
        shape=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # 5-tuple (repeats allowed)
                st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 4.9, HORIZON, 5.5]),
                st.sampled_from([0.0, 0.25, 1.0, 2.0, 2.5, 4.0, 9.0]),
                st.booleans(),  # sends_fin
                st.booleans(),  # malicious
                st.booleans(),  # constant_rate
            ),
            max_size=14,
        ),
        seed=st.integers(min_value=0, max_value=50),
    )
    @example(shape=[], seed=0)
    @settings(max_examples=80, deadline=None)
    def test_random_specs_equal_per_row(self, shape, seed):
        specs = [
            _spec(i, start, duration, fin=fin, malicious=mal, constant=constant)
            for i, start, duration, fin, mal, constant in shape
        ]
        merged, per_row = _per_flow_vs_per_row(specs, seed, HORIZON)
        assert merged == per_row

    def test_per_flow_needs_no_sink(self):
        """observe_flow builds no record, so it refuses a sink instead
        of skipping it silently."""
        aggregator = StreamingTraceAggregator(sink=lambda record: None)
        with pytest.raises(ValueError, match="sink"):
            aggregator.observe_flow(EDGE_SPECS[0].flow, [0.0], [False], 1500)
        assert aggregator.packets == 0
