"""Packet-level Blink experiment (Section 3.1, E2).

This module is the shared driver behind the packet-level bench, the
cross-scheduler determinism tests and the examples.  Instead of
materialising the whole workload as a sorted :class:`~repro.netsim.
trace.Trace` (~2M records at full scale) and replaying it offline, the
experiment streams each flow's packets as the flow starts.  Which
engine orders the stream depends on the run:

* **Default — no event loop.**  With one shard, no ``preload`` and no
  ``scheduler=`` named, E2 is open loop: no timers, no feedback, and
  the records are never merged.  Each flow's schedule is generated once
  and accounted once:
  :meth:`~repro.netsim.trace.StreamingTraceAggregator.observe_flow`
  adds its rows to the trace statistics, and
  :meth:`~repro.blink.pipeline.TraceReplaySession.feed_flows` solves
  Blink's selector per cell, so only the rows that change a cell go
  through the monitor — with the exact outcome of the offline
  :meth:`~repro.blink.pipeline.BlinkSwitch.replay_trace` over the
  loop's order.  A :class:`~repro.faults.injectors.TelemetryFault`
  draws once per record, so a fault run instead merges the schedules
  with :func:`~repro.flows.generators.merge_flow_packets` and hands
  each record to the aggregator and, through the fault, to Blink, as
  the event loop's sink does.  ``PacketLevelReport.scheduler`` reads
  ``"merge"``.
* **Event loop — the reference.**  ``preload`` or a named
  ``scheduler=`` runs the flows through an
  :class:`~repro.netsim.events.EventLoop`:
  :func:`~repro.flows.generators.schedule_workload` bulk-loads each
  flow's schedule when it starts, and every packet passes through the
  aggregator's sink into the same replay session, one record at a time.
* **Sharded.**  ``shards=2`` or more merges per-shard streams from
  forked workers (:class:`~repro.netsim.sharded.ShardedPacketEngine`).

These are keyword arguments only — no command-line flag or environment
variable selects them, and no registered attack runs this driver.
``blink-capture-packet-level`` shares the loop-free path's feed
instead: :func:`feed_specs` turns start-ordered specs into Blink's
input for both.

The resulting :class:`PacketLevelReport` carries a canonical
``report_hash`` over everything deterministic (series, outcomes,
aggregate counters — *not* wall time, the scheduler name or the shard
count), which is what the parity gates compare: the ``heap`` and
``calendar`` loops, the loop-free default and every shard count give
the same hash for the same parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _wallclock
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.blink.pipeline import BlinkSwitch, FlowRows, TraceReplaySession
from repro.core.errors import SimulationError
from repro.core.metrics import first_crossing_time
from repro.flows.generators import (
    DurationDistribution,
    FlowSpec,
    iter_flow_schedules,
    malicious_flow_schedule,
    merge_flow_packets,
    schedule_workload,
    steady_state_flow_schedule,
)
from repro.netsim.events import MAX_EVENTS, EventLoop, resolve_scheduler_name
from repro.netsim.sharded import ShardedPacketEngine, resolve_shard_count
from repro.netsim.trace import StreamingTraceAggregator, TraceRecord
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

#: Wire sizes matching :func:`repro.flows.generators.emit_trace`, so the
#: streamed observations are record-for-record identical to the offline
#: trace rendering.
DATA_PACKET_BYTES = 1500
FIN_PACKET_BYTES = 40

#: ``PacketLevelReport.scheduler`` on the loop-free path.
MERGE_SCHEDULER = "merge"


@dataclass(slots=True)
class PacketLevelReport:
    """Everything the packet-level experiment produced.

    ``report_hash`` covers the deterministic outcome only — wall-clock
    fields (``wall_seconds``, ``events_per_second``) and the scheduler
    name are excluded, so runs under different scheduler backends with
    the same parameters must hash identically.
    """

    prefix: str
    scheduler: str
    seed: int
    horizon: float
    flows: int
    malicious_flows: int
    packets: int
    events: int
    wall_seconds: float
    sample_times: Tuple[float, ...]
    sample_values: Tuple[float, ...]
    crossing_time: Optional[float]
    crossing_threshold: int
    measured_tr: Optional[float]
    reroutes: int
    first_reroute: Optional[float]
    decisions: int
    trace_summary: Dict[str, object] = field(default_factory=dict)
    #: Shard count the run executed under.  Excluded from
    #: :meth:`canonical` (like the scheduler name): the determinism
    #: contract makes it an execution detail, not an outcome.
    shards: int = 1

    @property
    def events_per_second(self) -> float:
        """Scheduler throughput: events processed per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def qm(self) -> float:
        if self.flows == 0:
            return 0.0
        return self.malicious_flows / self.flows

    def canonical(self) -> Dict[str, object]:
        """The hashable view: deterministic fields only."""
        return {
            "prefix": self.prefix,
            "seed": self.seed,
            "horizon": self.horizon,
            "flows": self.flows,
            "malicious_flows": self.malicious_flows,
            "packets": self.packets,
            "events": self.events,
            "sample_times": list(self.sample_times),
            "sample_values": list(self.sample_values),
            "crossing_time": self.crossing_time,
            "crossing_threshold": self.crossing_threshold,
            "measured_tr": self.measured_tr,
            "reroutes": self.reroutes,
            "first_reroute": self.first_reroute,
            "decisions": self.decisions,
            "trace_summary": self.trace_summary,
        }

    @property
    def report_hash(self) -> str:
        """sha256 over the canonical JSON rendering of the outcome."""
        payload = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def blink_attack_specs(
    destination_prefix: str = "198.51.100.0/24",
    horizon: float = 510.0,
    legitimate_flows: int = 2000,
    malicious_flows: int = 105,
    duration_model: Optional[DurationDistribution] = None,
    packet_rate: float = 2.0,
    seed: int = 0,
) -> List[FlowSpec]:
    """The flow specs of :func:`~repro.flows.generators.
    blink_attack_workload`, without rendering the trace.

    Same seed convention (legitimate pool on ``seed``, attack flows on
    ``seed + 1``; packet emission later consumes ``seed + 2``), so an
    offline :func:`~repro.flows.generators.emit_trace` of these specs
    is byte-identical to the workload helper's trace.
    """
    legit = steady_state_flow_schedule(
        destination_prefix,
        concurrent_flows=legitimate_flows,
        horizon=horizon,
        duration_model=duration_model,
        packet_rate=packet_rate,
        seed=seed,
    )
    bad = malicious_flow_schedule(
        destination_prefix,
        count=malicious_flows,
        horizon=horizon,
        packet_rate=packet_rate,
        seed=seed + 1,
        spread_start=2.0,
    )
    return legit + bad


def packet_level_experiment(
    destination_prefix: str = "198.51.100.0/24",
    horizon: float = 510.0,
    legitimate_flows: int = 2000,
    malicious_flows: int = 105,
    duration_model: Optional[DurationDistribution] = None,
    packet_rate: float = 2.0,
    seed: int = 0,
    scheduler: Optional[str] = None,
    sample_interval: float = 2.0,
    cells: int = 64,
    retransmission_window: float = 2.0,
    with_trace: bool = True,
    preload: bool = False,
    fault: Optional[object] = None,
    shards: Optional[int] = None,
    shard_crash_flag: Optional[str] = None,
) -> PacketLevelReport:
    """Run the packet-level capture experiment.

    Args:
        scheduler: event-queue backend (``"heap"``/``"calendar"``).
            Naming one runs the event loop; without one, a 1-shard run
            without ``preload`` runs no loop at all (see the module
            docstring), and a ``preload`` run uses the default scheduler.
        shards: worker-process count for the sharded engine (default
            1).  ``shards=1`` runs the loop-free or the single-loop
            path; any other count merges per-shard packet streams in
            forked processes, and the merged observation order — and
            therefore ``report_hash`` — is byte-identical to the
            single-loop run.
        shard_crash_flag: optional crash-flag file path consumed by one
            shard worker (chaos drills; see
            :func:`repro.faults.process.consume_crash_flag`).
        with_trace: when False, neither Blink nor the streaming
            aggregator runs and packets are merely counted — the pure
            engine-throughput configuration the
            ``blink_packet_level_events`` bench record measures, where
            per-event cost is scheduling + dispatch alone.
        preload: bulk-load every flow's packet schedule into the queue
            *before* the timed run instead of lazily at flow start
            (always runs the event loop, or the sharded engine).
            The queue then holds the full workload (hundreds of
            thousands of entries), which is where the calendar queue's
            O(1) operations beat the heap's O(log n) hardest; the
            reported ``wall_seconds`` covers dispatch only.  Tie-order
            of same-timestamp events differs from the lazy mode (push
            order differs), so hashes are comparable within one mode
            only — still scheduler-invariant within each.
        fault: optional :class:`~repro.faults.injectors.TelemetryFault`
            gate applied per record (drop/garble) on the way into Blink,
            in record order on every path, so its RNG stream is the same.

    Returns a :class:`PacketLevelReport`; its ``report_hash`` is
    invariant across scheduler backends, the loop-free default and
    shard counts for identical parameters.  A run that dispatches
    :data:`~repro.netsim.events.MAX_EVENTS` events raises
    :class:`SimulationError` on every path.
    """
    shard_count = resolve_shard_count(shards)
    loop_free = shard_count == 1 and not preload and scheduler is None
    scheduler_name = (
        MERGE_SCHEDULER if loop_free else resolve_scheduler_name(scheduler)
    )
    specs = blink_attack_specs(
        destination_prefix,
        horizon=horizon,
        legitimate_flows=legitimate_flows,
        malicious_flows=malicious_flows,
        duration_model=duration_model,
        packet_rate=packet_rate,
        seed=seed,
    )

    switch: Optional[BlinkSwitch] = None
    session: Optional[TraceReplaySession] = None
    aggregator: Optional[StreamingTraceAggregator] = None
    if with_trace:
        switch = BlinkSwitch(
            {destination_prefix: ["nh-primary", "nh-backup"]},
            cells=cells,
            retransmission_window=retransmission_window,
        )
        session = switch.replay_session(sample_interval=sample_interval)

        def sink(record: TraceRecord) -> None:
            if fault is not None:
                record = fault.degrade_record(record)  # type: ignore[attr-defined]
                if record is None:
                    return
            session.feed(record)

        aggregator = StreamingTraceAggregator(
            name="blink-attack",
            # The loop-free path feeds the aggregator and Blink side by
            # side (feed_specs) instead of chaining them per record.
            sink=None if loop_free else sink,
        )
        observe = aggregator.observe

    loop = (
        EventLoop(scheduler=scheduler_name)
        if shard_count == 1 and not loop_free
        else None
    )
    packet_count = [0]

    if not with_trace:

        def on_packet(spec: FlowSpec, t: float, retrans: bool, fin: bool) -> None:
            packet_count[0] += 1

    else:

        def on_packet(spec: FlowSpec, t: float, retrans: bool, fin: bool) -> None:
            observe(
                t,
                spec.flow,
                FIN_PACKET_BYTES if fin else DATA_PACKET_BYTES,
                "ingress",
                retrans,
                fin,
                spec.malicious,
            )

    if loop_free:
        flows = len(specs)
    elif shard_count > 1:
        # Sharded engine: each forked worker merges its flows' packet
        # schedules (no event loop) and ships them in conservative
        # lookahead windows; the coordinator merges the shard streams
        # by (time, rank, index) — the single loop's (time,
        # insertion_seq) order — so every closure above observes the
        # same sequence it would have seen on one loop.  As on the
        # single loop, preloaded schedules are built before the timed
        # run (in prepare()); lazy ones inside it, as flows are admitted.
        engine = ShardedPacketEngine(
            specs,
            seed=seed + 2,
            horizon=horizon,
            shards=shard_count,
            preload=preload,
            with_trace=with_trace,
            crash_flag=shard_crash_flag,
            max_events=MAX_EVENTS,
        )
        engine.prepare()
        flows = len(specs)
        with obs.span(
            "blink.packet_level",
            scheduler=scheduler_name,
            flows=flows,
            horizon=horizon,
            shards=shard_count,
        ):
            wall_start = _wallclock.perf_counter()
            sharded = engine.run(on_packet=on_packet)
            wall_seconds = _wallclock.perf_counter() - wall_start
        events = sharded.events
        if not with_trace:
            packet_count[0] = sharded.packets
    elif preload:
        # Same RNG tree as schedule_workload (iter_flow_schedules on
        # the same seed), but batches land in the queue up front.
        flows = 0
        for spec, times, flags in iter_flow_schedules(specs, seed + 2):
            if times:
                cursor = [0]

                def fire(
                    spec: FlowSpec = spec,
                    times: List[float] = times,
                    flags: List[bool] = flags,
                    cursor: List[int] = cursor,
                ) -> None:
                    i = cursor[0]
                    cursor[0] = i + 1
                    on_packet(spec, times[i], flags[i], False)

                loop.schedule_batch_at(times, fire, name="flow.packet")
            if spec.sends_fin:
                loop.schedule_transient(
                    spec.end,
                    lambda spec=spec: on_packet(spec, loop.now, False, True),
                    name="flow.fin",
                )
            flows += 1
    else:
        flows = schedule_workload(loop, specs, seed=seed + 2, on_packet=on_packet)

    if shard_count == 1:
        with obs.span(
            "blink.packet_level",
            scheduler=scheduler_name,
            flows=flows,
            horizon=horizon,
        ):
            wall_start = _wallclock.perf_counter()
            if loop_free:
                events, packet_count[0] = _run_merged(
                    specs, seed + 2, horizon, aggregator, session, fault
                )
            else:
                events = loop.run_until(horizon, max_events=MAX_EVENTS)
            wall_seconds = _wallclock.perf_counter() - wall_start

    threshold = cells // 2
    crossing = None
    measured_tr = None
    reroute_count = 0
    first_reroute = None
    decisions = 0
    times: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()
    if switch is not None:
        series = session.finish()[destination_prefix]
        times, values = series.times, series.values
        crossing = first_crossing_time(times, values, threshold)
        monitor = switch.monitors[destination_prefix]
        stats = monitor.selector.stats
        if stats.legit_occupancy_durations:
            measured_tr = stats.mean_legit_occupancy()
        reroute_count = len(monitor.reroutes)
        first_reroute = monitor.reroutes[0].time if monitor.reroutes else None
        decisions = len(switch.decisions)

    malicious = sum(1 for s in specs if s.malicious)
    return PacketLevelReport(
        prefix=destination_prefix,
        scheduler=scheduler_name,
        seed=seed,
        horizon=horizon,
        flows=flows,
        malicious_flows=malicious,
        packets=aggregator.packets if aggregator is not None else packet_count[0],
        events=events,
        wall_seconds=wall_seconds,
        sample_times=times,
        sample_values=values,
        crossing_time=crossing,
        crossing_threshold=threshold,
        measured_tr=measured_tr,
        reroutes=reroute_count,
        first_reroute=first_reroute,
        decisions=decisions,
        trace_summary=aggregator.summary() if aggregator is not None else {},
        shards=shard_count,
    )


def _run_merged(
    specs: List[FlowSpec],
    seed: int,
    horizon: float,
    aggregator: Optional[StreamingTraceAggregator],
    session: Optional[TraceReplaySession],
    fault: Optional[object],
) -> Tuple[int, int]:
    """The loop-free path: every admitted flow's rows, without an event loop.

    Ranks are positions in ``(start, spec index)`` order, so merging
    the rows by ``(time, rank, index)`` gives exactly the callback order
    of :func:`schedule_workload` on either scheduler.  Flows starting
    after ``horizon`` are never admitted, since none of their records
    could fall inside it.  Returns ``(events, records)``, where
    ``events`` counts what the loop would have dispatched: every record
    plus one flow-start per admitted flow.
    """
    order = sorted(range(len(specs)), key=lambda i: (specs[i].start, i))
    admitted = [specs[i] for i in order if specs[i].start <= horizon]
    records, _malicious = feed_specs(
        session, admitted, seed, horizon=horizon, fault=fault, aggregator=aggregator
    )
    return records + len(admitted), records


def feed_specs(
    session: Optional[TraceReplaySession],
    specs: Sequence[FlowSpec],
    seed: int,
    ranks: Optional[Iterable[int]] = None,
    horizon: float = math.inf,
    fault: Optional[object] = None,
    aggregator: Optional[StreamingTraceAggregator] = None,
) -> Tuple[int, int]:
    """Feed the packets of start-ordered ``specs`` to Blink's replay
    ``session`` and to ``aggregator``; either may be None.

    Rows and ties are those of :func:`merged_records` on the same
    arguments, and each flow's schedule is generated once.  Without a
    fault, the aggregator accounts each flow once (:meth:`~repro.netsim.
    trace.StreamingTraceAggregator.observe_flow`), and Blink gets every
    flow's rows at once: :meth:`~repro.blink.pipeline.TraceReplaySession.
    feed_flows` solves its selector per cell, so the rows are never
    merged.  A :class:`~repro.faults.injectors.TelemetryFault` draws from
    its RNG once per record, so a fault run takes the records of
    :func:`merged_records` one at a time: the aggregator observes each,
    and ``fault.degrade_record`` passes it on to
    :meth:`~repro.blink.pipeline.TraceReplaySession.feed` — the sink of
    the event-loop path, so the fault's noise stream is the same.

    Counts ``netsim.merge.records`` and ``netsim.merge.flow_starts`` and
    returns ``(records, malicious_records)``.  Raises
    :class:`SimulationError` once records plus flow starts reach
    :data:`~repro.netsim.events.MAX_EVENTS`, the events the loop would
    have dispatched.
    """
    starts = len(specs)
    records = malicious_records = 0
    if fault is not None and session is not None:
        degrade = fault.degrade_record  # type: ignore[attr-defined]
        feed = session.feed
        for record in merged_records(specs, seed, ranks, horizon):
            records += 1
            if record.malicious_ground_truth:
                malicious_records += 1
            if records + starts >= MAX_EVENTS:
                raise _max_events_error(horizon, record.time)
            if aggregator is not None:
                aggregator.observe(
                    record.time, record.flow, record.size, record.observation_point,
                    record.is_retransmission, record.is_fin_or_rst,
                    record.malicious_ground_truth,
                )
            record = degrade(record)
            if record is not None:
                feed(record)
    else:
        flows: List[FlowRows] = []
        zeros: Dict[int, bytes] = {}
        for flow in flow_rows(specs, seed, ranks, horizon):
            _rank, five_tuple, times, flags, fin, malicious = flow
            rows = len(times) + (fin is not None)
            if not rows:
                continue
            records += rows
            if malicious:
                malicious_records += rows
            if records + starts >= MAX_EVENTS:
                raise _max_events_error(horizon, times[-1] if fin is None else fin)
            if aggregator is not None:
                aggregator.observe_flow(
                    five_tuple, times, flags, DATA_PACKET_BYTES, fin, FIN_PACKET_BYTES,
                    malicious, "ingress",
                )
            flows.append(compact_rows(flow, zeros))
        if session is not None:
            session.feed_flows(flows)
    obs_metrics.inc("netsim.merge.records", records)
    obs_metrics.inc("netsim.merge.flow_starts", starts)
    return records, malicious_records


def _max_events_error(horizon: float, sim_time: float) -> SimulationError:
    return SimulationError(
        f"exceeded max_events={MAX_EVENTS} before reaching t={horizon}",
        sim_time=sim_time,
    )


def merged_records(
    specs: Sequence[FlowSpec],
    seed: int,
    ranks: Optional[Iterable[int]] = None,
    horizon: float = math.inf,
) -> Iterator[TraceRecord]:
    """The flows' packet records at or before ``horizon``, in time order.

    ``specs`` must be in non-decreasing start order; ``ranks`` (default:
    their positions) break ties between equal times, as
    :func:`~repro.flows.generators.merge_flow_packets` documents.  Each
    flow's schedule comes from :func:`~repro.flows.generators.
    iter_flow_schedules` on ``seed`` as the merge admits it.  The records
    are the ones the event loop's aggregator observes: ``"ingress"``,
    with :data:`DATA_PACKET_BYTES` or :data:`FIN_PACKET_BYTES`.
    """
    schedules = iter_flow_schedules(specs, seed)
    stream = merge_flow_packets(
        (rank, spec, times, flags)
        for rank, (spec, times, flags) in zip(
            count() if ranks is None else ranks, schedules
        )
    )
    for time, _rank, _index, spec, retrans, fin in stream:
        if time > horizon:
            return
        yield TraceRecord(
            time, spec.flow, FIN_PACKET_BYTES if fin else DATA_PACKET_BYTES,
            "ingress", retrans, fin, spec.malicious,
        )


def flow_rows(
    specs: Sequence[FlowSpec],
    seed: int,
    ranks: Optional[Iterable[int]] = None,
    horizon: float = math.inf,
) -> Iterator[FlowRows]:
    """Each flow's rows as :meth:`~repro.blink.pipeline.TraceReplaySession.
    feed_flows` takes them: ``(rank, flow, times, retransmissions,
    fin_time, malicious)``.

    Schedules come from :func:`~repro.flows.generators.
    iter_flow_schedules` on ``seed``; ``ranks`` (default: positions)
    break ties between equal times as :func:`merged_records` documents.
    Rows after ``horizon`` are dropped, and so is a FIN after it.  A
    caller holding every flow at once can keep each with
    :func:`compact_rows`.
    """
    for rank, (spec, times, flags) in zip(
        count() if ranks is None else ranks, iter_flow_schedules(specs, seed)
    ):
        cut = bisect_right(times, horizon)
        if cut < len(times):
            times, flags = times[:cut], flags[:cut]
        fin = spec.end if spec.sends_fin and spec.end <= horizon else None
        yield rank, spec.flow, times, flags, fin, spec.malicious


def compact_rows(flow: FlowRows, zeros: Dict[int, bytes]) -> FlowRows:
    """``flow`` with its times as an ``array('d')`` and its flags as
    ``bytes``: 9 bytes a row instead of a float object and two list
    slots.  Flows without a retransmission share the all-zero flags of
    their length in ``zeros``, one dict per run."""
    rank, five_tuple, times, flags, fin, malicious = flow
    if any(flags):
        flags = bytes(flags)
    else:
        n = len(flags)
        flags = zeros.get(n)
        if flags is None:
            flags = zeros[n] = bytes(n)
    return rank, five_tuple, array("d", times), flags, fin, malicious
