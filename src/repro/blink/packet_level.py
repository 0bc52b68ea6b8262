"""Event-driven packet-level Blink experiment (Section 3.1, E2).

This module is the shared driver behind the packet-level bench, the
cross-scheduler determinism tests and the examples.  Instead of
materialising the whole workload as a sorted :class:`~repro.netsim.
trace.Trace` (~2M records at full scale) and replaying it offline, the
experiment runs *through the event loop*:

* :func:`~repro.flows.generators.schedule_workload` bulk-loads each
  flow's packet schedule when the flow starts (one shared event per
  flow on the calendar scheduler);
* every emitted packet is folded into a
  :class:`~repro.netsim.trace.StreamingTraceAggregator` — O(1) running
  counters plus a bounded ring buffer, so memory stays flat no matter
  the horizon;
* the aggregator's sink pushes each observation straight into a
  :class:`~repro.blink.pipeline.TraceReplaySession`, which reproduces
  the exact sampling cadence of the offline
  :meth:`~repro.blink.pipeline.BlinkSwitch.replay_trace`.

The resulting :class:`PacketLevelReport` carries a canonical
``report_hash`` over everything deterministic (series, outcomes,
aggregate counters — *not* wall time or the scheduler name), which is
what the CI parity gate compares across the ``heap`` and ``calendar``
scheduler backends: same seed, different scheduler, identical hash.
"""

from __future__ import annotations

import hashlib
import json
import time as _wallclock
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.blink.pipeline import BlinkSwitch
from repro.core.metrics import first_crossing_time
from repro.flows.generators import (
    DurationDistribution,
    FlowSpec,
    iter_flow_schedules,
    malicious_flow_schedule,
    schedule_workload,
    steady_state_flow_schedule,
)
from repro.netsim.events import EventLoop, resolve_scheduler_name
from repro.netsim.link import Link
from repro.netsim.sharded import ShardedPacketEngine, resolve_shard_count
from repro.netsim.packet import TcpFlags, tcp_packet
from repro.netsim.trace import StreamingTraceAggregator, TraceRecord
from repro.obs import tracer as obs

#: Wire sizes matching :func:`repro.flows.generators.emit_trace`, so the
#: streamed observations are record-for-record identical to the offline
#: trace rendering.
DATA_PACKET_BYTES = 1500
FIN_PACKET_BYTES = 40


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
    peak_ring_bytes: int = 0
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
        """The hashable view: deterministic fields only.

        The aggregator's ring stats are excluded too — retention depth
        is an observability knob, not an experiment outcome.
        """
        summary = {k: v for k, v in self.trace_summary.items() if k != "ring"}
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
            "trace_summary": summary,
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
    with_blink: bool = True,
    with_trace: bool = True,
    preload: bool = False,
    through_link: bool = False,
    ring_capacity: int = 256,
    fault: Optional[object] = None,
    shards: Optional[int] = None,
    adaptive_window: Optional[bool] = None,
    shard_crash_flag: Optional[str] = None,
) -> PacketLevelReport:
    """Run the packet-level capture experiment through the event loop.

    Args:
        scheduler: event-queue backend (``"heap"``/``"calendar"``;
            None resolves via ``REPRO_SCHEDULER`` then the default).
        shards: worker-process count for the sharded engine (None
            resolves via ``REPRO_SHARDS`` then 1).  ``shards=1`` runs
            the single-loop path; any other count merges per-shard
            packet streams in forked processes, and the merged
            observation order — and therefore ``report_hash`` — is
            byte-identical to the single-loop run.
        adaptive_window: grow sharded sync windows over quiet stretches
            (None resolves via ``REPRO_ADAPTIVE_WINDOW`` then off);
            a pure execution knob — the report hash never changes.
        shard_crash_flag: optional crash-flag file path consumed by one
            shard worker (chaos drills; see
            :func:`repro.faults.process.consume_crash_flag`).
        with_blink: when False, only the workload + streaming
            aggregation runs (no Blink pipeline).
        with_trace: when False (implies ``with_blink=False``), even the
            streaming aggregator is skipped and packets are merely
            counted — the pure engine-throughput configuration the
            ``blink_packet_level_events`` bench record measures, where
            per-event cost is scheduling + dispatch alone.
        preload: bulk-load every flow's packet schedule into the queue
            *before* the timed run instead of lazily at flow start.
            The queue then holds the full workload (hundreds of
            thousands of entries), which is where the calendar queue's
            O(1) operations beat the heap's O(log n) hardest; the
            reported ``wall_seconds`` covers dispatch only.  Tie-order
            of same-timestamp events differs from the lazy mode (push
            order differs), so hashes are comparable within one mode
            only — still scheduler-invariant within each.
        through_link: additionally push every packet through a pooled
            ingress :class:`~repro.netsim.link.Link` (serialisation +
            propagation delay, free-list packet recycling) before it is
            observed.  Off by default: the paper's experiment feeds the
            mirror directly, and link delays shift observation times.
        ring_capacity: bound of the aggregator's recent-record ring
            buffer (0 disables retention entirely).
        fault: optional :class:`~repro.faults.injectors.TelemetryFault`
            gate applied per record (drop/garble) on the way into Blink.

    Returns a :class:`PacketLevelReport`; its ``report_hash`` is
    invariant across scheduler backends for identical parameters.
    """
    scheduler_name = resolve_scheduler_name(scheduler)
    shard_count = resolve_shard_count(shards)
    specs = blink_attack_specs(
        destination_prefix,
        horizon=horizon,
        legitimate_flows=legitimate_flows,
        malicious_flows=malicious_flows,
        duration_model=duration_model,
        packet_rate=packet_rate,
        seed=seed,
    )

    loop = EventLoop(scheduler=scheduler_name)
    if not with_trace:
        with_blink = False
    switch: Optional[BlinkSwitch] = None
    session = None
    if with_blink:
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

    else:
        sink = None  # type: ignore[assignment]

    aggregator: Optional[StreamingTraceAggregator] = None
    if with_trace:
        aggregator = StreamingTraceAggregator(
            name="blink-attack",
            ring_capacity=ring_capacity,
            sink=sink,
        )
        observe = aggregator.observe
    packet_count = [0]

    if not with_trace:

        def on_packet(spec: FlowSpec, t: float, retrans: bool, fin: bool) -> None:
            packet_count[0] += 1

    elif through_link:
        # One shared ingress pipe (mirror port): pooled packets are
        # built per emission, observed at the far end, then recycled.
        link = Link(
            loop=loop,
            src="workload",
            dst="mirror",
            bandwidth_bps=10e9,
            delay_s=0.0005,
            queue_packets=1 << 16,
            seed=seed,
        )
        seqs: Dict[int, int] = {}

        def deliver(packet) -> None:
            tcp = packet.tcp
            observe(
                loop.now,
                packet.five_tuple,
                packet.size,
                "ingress",
                tcp.is_retransmission_ground_truth,
                bool(tcp.flags & (TcpFlags.FIN | TcpFlags.RST)),
                packet.malicious_ground_truth,
            )
            packet.release()

        def on_packet(spec: FlowSpec, t: float, retrans: bool, fin: bool) -> None:
            flow_id = id(spec)
            if fin:
                seq = seqs.pop(flow_id, 0)
                flags = TcpFlags.FIN | TcpFlags.ACK
                payload = 0
            else:
                seq = seqs.get(flow_id, 0)
                if not retrans:
                    seqs[flow_id] = seq + DATA_PACKET_BYTES - 40
                flags = TcpFlags.ACK
                payload = DATA_PACKET_BYTES - 40
            packet = tcp_packet(
                spec.flow.src,
                spec.flow.dst,
                spec.flow.src_port,
                spec.flow.dst_port,
                seq=seq,
                payload_size=payload,
                flags=flags,
                retransmission=retrans,
                malicious=spec.malicious,
                created_at=t,
                pooled=True,
            )
            if not link.transmit(packet, deliver):
                packet.release()

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

    if shard_count > 1:
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
            adaptive_window=adaptive_window,
            preload=preload,
            with_trace=with_trace,
            crash_flag=shard_crash_flag,
        )
        engine.prepare()
        flows = len(specs)
        with obs.span(
            "blink.packet_level",
            scheduler=scheduler_name,
            flows=flows,
            horizon=horizon,
            through_link=through_link,
            shards=shard_count,
        ):
            wall_start = _wallclock.perf_counter()
            sharded = engine.run(
                on_packet=on_packet, loop=loop, advance_loop=through_link
            )
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
            through_link=through_link,
        ):
            wall_start = _wallclock.perf_counter()
            events = loop.run_until(horizon, max_events=50_000_000)
            wall_seconds = _wallclock.perf_counter() - wall_start
    peak_ring = aggregator.ring_memory_bytes() if aggregator is not None else 0

    threshold = cells // 2
    crossing = None
    measured_tr = None
    reroute_count = 0
    first_reroute = None
    decisions = 0
    times: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()
    if switch is not None and session is not None:
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
        peak_ring_bytes=peak_ring,
        shards=shard_count,
    )
