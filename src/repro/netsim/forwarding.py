"""Internet-scale sharded forwarding: multiprocess full-network coordinator.

This module splits a forwarding network over forked worker processes:
each shard owns a full forwarding :class:`~repro.netsim.network.Network`
partition (routing tables, multi-hop paths, TTL/ICMP handling, link
faults) and an :class:`~repro.netsim.events.EventLoop`, advanced in
conservative lookahead windows by a coordinator that exchanges
*boundary packets* — packets leaving one shard over a cut link — as
kernels-packed struct-of-arrays records over ``multiprocessing`` pipes.

Architecture
============

* The parent builds every shard's event loop and network **before
  forking** (plus one shared, destination-restricted
  :class:`~repro.netsim.routing.StaticRouter` — tables for a 1k-router
  topology are expensive and identical across shards), so workers
  inherit the objects through the fork memory image and nothing is
  pickled.  Flow specs are then *streamed* to the workers post-fork in
  SoA chunks, keeping coordinator memory bounded for million-flow
  workloads.
* Each window the coordinator picks a barrier ``target``, ships every
  shard the boundary packets destined to it (sorted by ``(arrival,
  source shard, emission index)`` — a deterministic admission order),
  and collects acks carrying the shard's emitted boundary packets,
  delivery records and next-event bound.

Safety (the causality argument)
===============================

Let ``L`` be the minimum delay over cut links
(:func:`~repro.netsim.topology.partition_lookahead`) and
``out_la(i)`` the minimum delay over shard *i*'s **outgoing** cut links
(:func:`~repro.netsim.topology.partition_out_lookaheads`).  With the
fixed barrier ``target = t + L``, any packet emitted after ``t``
arrives strictly after ``target`` — the classic conservative window.
The **adaptive** widening used here
(:class:`~repro.netsim.sharded.AdaptiveWindow`) may propose a wider
window, which is clamped to the *frontier*::

    frontier = min over shards i of (eff_bound(i) + out_la(i))

where ``eff_bound(i)`` is shard *i*'s next-event bound, folded with the
earliest arrival of any boundary packet still pending injection into
it.  A shard cannot emit boundary traffic before its next event fires,
so no packet can land anywhere before the frontier; and because
``eff_bound(i) > t`` after a barrier at ``t``, the frontier always
clears ``t + L`` — adaptive windows are never narrower than the fixed
ones and strictly safe.  Null-message fast-forward (jumping the barrier
to the global minimum effective bound when all shards are quiet) uses
the same effective bounds, so pending injections are never skipped.

Determinism contract
====================

Delivery records are canonicalised content-first: the report hash is a
sha256 over the **lexicographically row-sorted** record columns
(``soa_sort_pack_f64``, byte-identical across kernel backends), so the
hash is invariant to the per-window, per-shard order records arrive in.
Topology generators jitter every link delay deterministically
(:func:`~repro.netsim.topology.fat_tree_topology`,
:func:`~repro.netsim.topology.scaled_random_topology`), keeping
same-timestamp ties measure-zero, so the record *set* — and therefore
``report_hash`` — is byte-identical between the monolithic run and any
shard count, scheduler, or kernel backend.  The parity grid in
``tests/test_netsim_forwarding.py`` pins exactly this.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import random
import time as _wallclock
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError, SimulationError
from repro.faults.injectors import LINK_TAP_KINDS, FaultyLinkTap, schedule_link_faults
from repro.faults.plan import FaultPlan
from repro.faults.process import consume_crash_flag
from repro.flows.flow import FiveTuple
from repro.flows.generators import FlowSpec, flow_packet_schedule, flow_stream_seed
from repro.netsim.events import EventLoop, resolve_scheduler_name, suggest_bucket_width
from repro.netsim.network import Network
from repro.netsim.packet import (
    IcmpHeader,
    IcmpType,
    Packet,
    Protocol as IpProto,
    TcpFlags,
    TcpHeader,
    tcp_packet,
)
from repro.netsim.routing import StaticRouter
from repro.netsim.sharded import (
    _TUNE_SAMPLE_CAP,
    AdaptiveWindow,
    ShardPipeMixin,
    _observe_window_width,
    resolve_adaptive_window,
    resolve_shard_count,
)
from repro.netsim.topology import (
    Topology,
    partition_cut_edges,
    partition_lookahead,
    partition_nodes,
    partition_out_lookaheads,
)
from repro.obs import metrics as obs_metrics

#: Flow-spec chunk size for post-fork streaming: bounds coordinator
#: memory at ~13 columns * 8 bytes * chunk per in-flight chunk.
FLOW_CHUNK = 8192

#: Columns of one packed flow spec (all float64; node names travel as
#: indices into the canonical sorted node list both ends compute).
_FLOW_COLUMNS = 13

#: Columns of one packed boundary packet (see ``_pack_boundary``).
BOUNDARY_COLUMNS = 22

#: Columns of one delivery record: time, flow id, sequence, kind.
DELIVERY_COLUMNS = 4

_KIND_DATA = 0
_KIND_RETRANS = 1
_KIND_FIN = 2
_KIND_ICMP = 3


# -- codecs -------------------------------------------------------------


def _pack_flow_chunk(backend, chunk: Sequence[Tuple[int, FlowSpec]], index) -> bytes:
    """Pack ``[(fid, spec)]`` as :data:`_FLOW_COLUMNS` float64 columns."""
    cols: List[List[float]] = [[] for _ in range(_FLOW_COLUMNS)]
    for fid, spec in chunk:
        row = (
            float(fid),
            float(index[spec.flow.src]),
            float(index[spec.flow.dst]),
            spec.start,
            spec.duration,
            spec.packet_rate,
            spec.retransmit_probability,
            float(spec.flow.src_port),
            float(spec.flow.dst_port),
            float(spec.flow.protocol),
            1.0 if spec.malicious else 0.0,
            1.0 if spec.sends_fin else 0.0,
            1.0 if spec.constant_rate else 0.0,
        )
        for c, value in enumerate(row):
            cols[c].append(value)
    return backend.soa_pack_f64(cols)


def _unpack_flow_chunk(
    backend, payload: bytes, nodes: Sequence[str]
) -> List[Tuple[int, FlowSpec]]:
    """Inverse of :func:`_pack_flow_chunk`."""
    cols = backend.soa_unpack_f64(payload, _FLOW_COLUMNS)
    out: List[Tuple[int, FlowSpec]] = []
    for k in range(len(cols[0])):
        flow = FiveTuple(
            src=nodes[int(cols[1][k])],
            dst=nodes[int(cols[2][k])],
            src_port=int(cols[7][k]),
            dst_port=int(cols[8][k]),
            protocol=int(cols[9][k]),
        )
        out.append(
            (
                int(cols[0][k]),
                FlowSpec(
                    flow=flow,
                    start=cols[3][k],
                    duration=cols[4][k],
                    packet_rate=cols[5][k],
                    malicious=bool(cols[10][k]),
                    retransmit_probability=cols[6][k],
                    sends_fin=bool(cols[11][k]),
                    constant_rate=bool(cols[12][k]),
                ),
            )
        )
    return out


def _boundary_row(arrival: float, ingress: str, packet: Packet, index) -> Tuple[float, ...]:
    """One boundary packet as :data:`BOUNDARY_COLUMNS` floats.

    Every integer involved (ports, TTL, sizes, flow ids, sequence
    numbers, flag masks) is far below 2**53, so the float64 transport
    is exact.
    """
    tcp = packet.tcp
    icmp = packet.icmp
    return (
        arrival,
        float(index[ingress]),
        float(index[packet.src]),
        float(index[packet.dst]),
        float(packet.protocol),
        float(packet.src_port),
        float(packet.dst_port),
        float(packet.ttl),
        float(packet.payload_size),
        float(packet.flow_id) if packet.flow_id is not None else -1.0,
        1.0 if packet.malicious_ground_truth else 0.0,
        packet.created_at,
        1.0 if tcp is not None else 0.0,
        float(tcp.seq) if tcp is not None else 0.0,
        float(tcp.ack) if tcp is not None else 0.0,
        float(tcp.flags) if tcp is not None else 0.0,
        float(tcp.window) if tcp is not None else 0.0,
        1.0 if tcp is not None and tcp.is_retransmission_ground_truth else 0.0,
        1.0 if icmp is not None else 0.0,
        float(icmp.icmp_type) if icmp is not None else 0.0,
        float(icmp.code) if icmp is not None else 0.0,
        float(icmp.original_probe_id)
        if icmp is not None and icmp.original_probe_id is not None
        else -1.0,
    )


def _row_to_packet(row: Sequence[float], nodes: Sequence[str]) -> Tuple[float, str, Packet]:
    """Inverse of :func:`_boundary_row`: ``(arrival, ingress, packet)``."""
    tcp = None
    if row[12]:
        tcp = TcpHeader(
            seq=int(row[13]),
            ack=int(row[14]),
            flags=TcpFlags(int(row[15])),
            window=int(row[16]),
            is_retransmission_ground_truth=bool(row[17]),
        )
    icmp = None
    if row[18]:
        probe = int(row[21])
        icmp = IcmpHeader(
            icmp_type=IcmpType(int(row[19])),
            code=int(row[20]),
            original_probe_id=probe if probe >= 0 else None,
        )
    flow_id = int(row[9])
    packet = Packet(
        src=nodes[int(row[2])],
        dst=nodes[int(row[3])],
        protocol=IpProto(int(row[4])),
        src_port=int(row[5]),
        dst_port=int(row[6]),
        ttl=int(row[7]),
        payload_size=int(row[8]),
        tcp=tcp,
        icmp=icmp,
        flow_id=flow_id if flow_id >= 0 else None,
        malicious_ground_truth=bool(row[10]),
        created_at=row[11],
    )
    return (row[0], nodes[int(row[1])], packet)


def _pack_rows(backend, rows: Sequence[Sequence[float]], columns: int) -> bytes:
    if not rows:
        return b""
    return backend.soa_pack_f64(
        [[row[c] for row in rows] for c in range(columns)]
    )


def _unpack_rows(backend, payload: bytes, columns: int) -> List[Tuple[float, ...]]:
    if not payload:
        return []
    cols = backend.soa_unpack_f64(payload, columns)
    return list(zip(*cols))


# -- per-shard simulation state (built pre-fork) ------------------------


class _ShardState:
    """Everything one shard worker needs, wired before the fork.

    The outbox collects ``(arrival, ingress, packet)`` for boundary
    egress; the records list collects delivery rows.  Both are plain
    lists the forked child drains — closures over them cross the fork
    as part of the memory image, which is exactly why the state must be
    assembled in the parent.
    """

    def __init__(
        self,
        shard: int,
        topology: Topology,
        local: Set[str],
        nodes: Sequence[str],
        endpoints: Set[str],
        router: StaticRouter,
        seed: int,
        scheduler: Optional[str],
        default_queue_packets: int,
    ):
        self.shard = shard
        self.nodes = list(nodes)
        self.index = {name: k for k, name in enumerate(self.nodes)}
        self.loop = EventLoop(scheduler=scheduler)
        self.outbox: List[Tuple[float, str, Packet]] = []
        self.records: List[Tuple[float, float, float, float]] = []
        self.delivered = [0]

        def egress(packet, _egress_node, ingress, arrival, _out=self.outbox):
            _out.append((arrival, ingress, packet))

        self.net = Network(
            topology,
            loop=self.loop,
            seed=seed,
            default_queue_packets=default_queue_packets,
            local_nodes=local,
            remote_egress=egress,
            router=router,
        )
        for node in sorted(endpoints & local):
            self.net.attach_host(node, _delivery_handler(self))


def _delivery_handler(state: "_ShardState"):
    records = state.records
    delivered = state.delivered
    index = state.index

    def handler(packet: Packet, now: float) -> None:
        delivered[0] += 1
        if packet.icmp is not None:
            # ICMP replies carry no flow identity; key the record by
            # the delivery node instead (packet ids differ between the
            # monolithic and sharded runs, so they must not leak in).
            records.append((now, -1.0, float(index[packet.dst]), float(_KIND_ICMP)))
            return
        tcp = packet.tcp
        if tcp is not None and tcp.flags & TcpFlags.FIN:
            kind = _KIND_FIN
        elif tcp is not None and tcp.is_retransmission_ground_truth:
            kind = _KIND_RETRANS
        else:
            kind = _KIND_DATA
        flow = float(packet.flow_id) if packet.flow_id is not None else -1.0
        seq = float(tcp.seq) if tcp is not None else -1.0
        records.append((now, flow, seq, float(kind)))

    return handler


def _drain_deliveries(backend, state: "_ShardState") -> bytes:
    if not state.records:
        return b""
    payload = _pack_rows(backend, state.records, DELIVERY_COLUMNS)
    state.records.clear()
    return payload


def _schedule_flow(
    net: Network, spec: FlowSpec, fid: int, seed: int, payload_size: int
) -> None:
    """Schedule one flow lazily: packet times materialise at start time.

    Identical on the monolithic and sharded paths: a ``flow.start``
    transient expands into a ``schedule_batch_at`` over the flow's
    packet schedule (pure per-flow RNG, so shard placement cannot
    perturb it) plus an optional FIN segment at the flow end.
    """
    loop = net.loop

    def start(spec: FlowSpec = spec, fid: int = fid) -> None:
        times, flags = flow_packet_schedule(
            spec, random.Random(flow_stream_seed(seed, spec))
        )
        cursor = [0]

        def fire() -> None:
            i = cursor[0]
            cursor[0] = i + 1
            net.send(
                tcp_packet(
                    spec.flow.src,
                    spec.flow.dst,
                    spec.flow.src_port,
                    spec.flow.dst_port,
                    seq=i,
                    payload_size=payload_size,
                    retransmission=flags[i],
                    flow_id=fid,
                    malicious=spec.malicious,
                ),
                from_node=spec.flow.src,
            )

        if times:
            loop.schedule_batch_at(times, fire, name="flow.packet")
        if spec.sends_fin:
            loop.schedule_transient(
                spec.end,
                lambda n=len(times): net.send(
                    tcp_packet(
                        spec.flow.src,
                        spec.flow.dst,
                        spec.flow.src_port,
                        spec.flow.dst_port,
                        seq=n,
                        payload_size=0,
                        flags=TcpFlags.FIN | TcpFlags.ACK,
                        flow_id=fid,
                        malicious=spec.malicious,
                    ),
                    from_node=spec.flow.src,
                ),
                name="flow.fin",
            )

    loop.schedule_transient(spec.start, start, name="flow.start")


def _install_fault_plan(plan: Optional[FaultPlan], net: Network) -> None:
    """Apply a fault plan's data-plane clauses to one shard network.

    Link-state transitions become loop events (already deterministic);
    loss/corrupt/reorder bursts install per-link taps whose RNGs are
    seeded by (plan seed, src, dst), so every shard layout draws the
    same stream for the same link.
    """
    if plan is None:
        return
    links = net.links()
    schedule_link_faults(plan, links)
    if plan.specs_of(*LINK_TAP_KINDS):
        for link in links:
            tap = FaultyLinkTap(plan, link)
            if tap.specs:
                link.tap = tap


# -- worker process -----------------------------------------------------


def _forwarding_shard_worker(conn, state: _ShardState, config: Dict[str, object]) -> None:
    """One forwarding shard: a Network partition advanced in windows.

    Protocol (all messages tuples, first element the verb):

    ``("flows", payload)``          <- SoA flow-spec chunk (repeatable)
    ``("endflows",)``               <- stream complete
    ``("ready", bound)``            -> flows scheduled, will obey advances
    ``("advance", T, inject)``      <- inject boundary rows, run until T
    ``("ack", T, events, egress, deliveries, delivered, bound)``
    ``("done",)``                   <- finish
    ``("metrics", events, delivered, registry_dict)``
    ``("error", message)``          -> any failure, then exit
    """
    shard = state.shard
    crash_flag = str(config.get("crash_flag") or "")
    try:
        from repro.kernels import get_backend

        backend = get_backend(config.get("backend"))
        loop = state.loop
        net = state.net
        nodes = state.nodes
        seed = int(config["seed"])  # type: ignore[arg-type]
        payload_size = int(config["payload_size"])  # type: ignore[arg-type]

        table: List[Tuple[int, FlowSpec]] = []
        while True:
            message = conn.recv()
            if message[0] == "endflows":
                break
            if message[0] != "flows":
                raise SimulationError(
                    f"shard {shard}: expected flows, got {message[0]!r}"
                )
            table.extend(_unpack_flow_chunk(backend, message[1], nodes))

        # Shard-local calendar tuning: size the buckets from this
        # shard's own flow-start gaps (the pre-run observable event
        # population).  The loop predates the fork, hence retune
        # instead of construct — legal only while the queue is empty,
        # so runs with pre-scheduled events (fault transitions) keep
        # the default width.
        bucket_width = None
        if (
            loop.scheduler == "calendar"
            and len(table) >= 2
            and loop.next_event_bound() is None
        ):
            sample = [spec.start for _fid, spec in table[:_TUNE_SAMPLE_CAP]]
            bucket_width = suggest_bucket_width(sample)
            loop.retune_bucket_width(bucket_width)

        for fid, spec in table:
            _schedule_flow(net, spec, fid, seed, payload_size)
        del table
        conn.send(("ready", loop.next_event_bound()))

        registry = obs_metrics.MetricRegistry()
        events_total = 0
        remaining = int(config.get("max_events") or 50_000_000)  # type: ignore[arg-type]
        with obs_metrics.activate(registry):
            if bucket_width is not None:
                obs_metrics.gauge_set("calendar.bucket_width", bucket_width)
            while True:
                message = conn.recv()
                if message[0] == "done":
                    break
                if message[0] != "advance":
                    raise SimulationError(
                        f"shard {shard}: unexpected {message[0]!r}"
                    )
                consume_crash_flag(crash_flag)
                _verb, target, inject = message
                if inject:
                    for row in _unpack_rows(backend, inject, BOUNDARY_COLUMNS):
                        arrival, ingress, packet = _row_to_packet(row, nodes)
                        net.inject_remote(packet, ingress, max(arrival, loop.now))
                delta = loop.run_until(target, max_events=remaining)
                remaining -= delta
                events_total += delta
                egress = b""
                if state.outbox:
                    index = state.index
                    egress = _pack_rows(
                        backend,
                        [
                            _boundary_row(arrival, ingress, packet, index)
                            for arrival, ingress, packet in state.outbox
                        ],
                        BOUNDARY_COLUMNS,
                    )
                    state.outbox.clear()
                deliveries = _drain_deliveries(backend, state)
                conn.send(
                    (
                        "ack",
                        target,
                        delta,
                        egress,
                        deliveries,
                        state.delivered[0],
                        loop.next_event_bound(),
                    )
                )
        conn.send(("metrics", events_total, state.delivered[0], registry.to_dict()))
    except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


# -- report -------------------------------------------------------------


@dataclass
class ForwardingReport:
    """What a sharded forwarding run produced.

    ``report_hash`` is the sha256 of the canonically sorted delivery
    records — a pure function of the simulated *physics*, byte-equal
    across shard counts, schedulers, kernel backends and window
    policies.  Everything else describes the execution.
    """

    report_hash: str
    flows: int
    delivered: int
    events: int
    shards: int
    scheduler: str
    adaptive_window: bool
    windows: int = 0
    fast_forwards: int = 0
    boundary_packets: int = 0
    pipe_bytes: int = 0
    wall_seconds: float = 0.0
    lookahead: Optional[float] = None
    per_shard_events: List[int] = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _hash_deliveries(columns: Sequence[Sequence[float]]) -> str:
    import hashlib

    from repro.kernels import get_backend

    return hashlib.sha256(get_backend().soa_sort_pack_f64(list(columns))).hexdigest()


# -- coordinator --------------------------------------------------------


class ShardedForwardingSim(ShardPipeMixin):
    """Multiprocess coordinator for a partitioned forwarding network.

    The topology is split by
    :func:`~repro.netsim.topology.partition_nodes`; each shard's network
    runs in its own process and boundary packets travel as SoA records
    over pipes (see the module docstring for the full safety argument).
    A cut link with zero delay leaves no lookahead and is rejected.

    ``processes=False`` drives the identical shard states in-process —
    the fallback for platforms without ``fork``, and a debugging aid;
    the windowing and admission order are the same, so reports match.
    """

    def __init__(
        self,
        topology: Topology,
        shards: int,
        *,
        seed: int = 0,
        scheduler: Optional[str] = None,
        partition_seed: int = 0,
        assignment: Optional[Dict[str, int]] = None,
        adaptive_window: Optional[bool] = None,
        endpoints: Optional[Iterable[str]] = None,
        default_queue_packets: int = 1000,
        payload_size: int = 512,
        fault_plan: Optional[FaultPlan] = None,
        processes: Optional[bool] = None,
        crash_flag: Optional[str] = None,
        max_events: int = 50_000_000,
    ):
        if shards < 2:
            raise ConfigurationError(
                "ShardedForwardingSim needs >= 2 shards; use "
                "forwarding_experiment for the monolithic path"
            )
        self.topology = topology
        self.shards = resolve_shard_count(shards)
        self.seed = seed
        self.scheduler = resolve_scheduler_name(scheduler)
        self.payload_size = payload_size
        self.max_events = max_events
        self.crash_flag = crash_flag
        if assignment is None:
            self.assignment = partition_nodes(topology, shards, seed=partition_seed)
        else:
            # An explicit partition (e.g. along clustered-topology
            # seams, or an operator's AS boundaries).  The physics are
            # partition-independent; only the cut — and therefore the
            # lookahead — changes.
            self.assignment = dict(assignment)
            missing = set(topology.nodes()) - set(self.assignment)
            if missing:
                raise ConfigurationError(
                    f"assignment misses topology nodes: {sorted(missing)[:5]}"
                )
            bad = {
                r for r in self.assignment.values()
                if not 0 <= r < self.shards
            }
            if bad:
                raise ConfigurationError(
                    f"assignment regions {sorted(bad)} outside 0..{self.shards - 1}"
                )
        self.lookahead = partition_lookahead(topology, self.assignment)
        if self.lookahead is None:
            raise ConfigurationError(
                "topology partition has no cut links; run monolithic instead"
            )
        if self.lookahead <= 0.0:
            cut = partition_cut_edges(topology, self.assignment)
            raise ConfigurationError(
                f"cannot shard: a cut link has zero delay (cut={cut})"
            )
        self.out_lookaheads = partition_out_lookaheads(topology, self.assignment)
        self.adaptive_enabled = resolve_adaptive_window(adaptive_window)
        self.nodes = sorted(topology.nodes())
        self.endpoints = set(endpoints) if endpoints is not None else set(self.nodes)
        unknown = self.endpoints - set(self.nodes)
        if unknown:
            raise ConfigurationError(f"unknown endpoint nodes: {sorted(unknown)}")
        if processes is None:
            processes = _fork_available()
        self.processes = bool(processes)

        # One shared destination-restricted router: tables only toward
        # actual traffic endpoints, computed once and inherited by
        # every shard through the fork (copy-on-write, never pickled).
        router = StaticRouter(topology)
        router.compute(destinations=sorted(self.endpoints))
        self.states: List[_ShardState] = []
        for shard in range(self.shards):
            local = {
                node for node, owner in self.assignment.items() if owner == shard
            }
            state = _ShardState(
                shard,
                topology,
                local,
                self.nodes,
                self.endpoints,
                router,
                seed,
                self.scheduler,
                default_queue_packets,
            )
            _install_fault_plan(fault_plan, state.net)
            self.states.append(state)
        self._procs = []
        self._conns = []

    # -- running -----------------------------------------------------

    def run(self, flows: Iterable[FlowSpec], horizon: float) -> ForwardingReport:
        """Stream ``flows`` onto the shards and run to ``horizon``."""
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        from repro.kernels import get_backend, resolve_backend_name

        backend = get_backend()
        started = _wallclock.perf_counter()
        if self.processes:
            flow_count = self._start_workers(flows, resolve_backend_name())
        else:
            flow_count = self._start_local(flows)
        adaptive = (
            AdaptiveWindow(self.lookahead) if self.adaptive_enabled else None
        )
        report = ForwardingReport(
            report_hash="",
            flows=flow_count,
            delivered=0,
            events=0,
            shards=self.shards,
            scheduler=self.scheduler,
            adaptive_window=self.adaptive_enabled,
            lookahead=self.lookahead,
            per_shard_events=[0] * self.shards,
        )
        delivery_columns: List[List[float]] = [[] for _ in range(DELIVERY_COLUMNS)]
        # Boundary rows awaiting injection, per destination shard, as
        # (arrival, source shard, emission index, row).
        pending: List[List[Tuple[float, int, int, Tuple[float, ...]]]] = [
            [] for _ in range(self.shards)
        ]
        try:
            t = 0.0
            window = self.lookahead
            while t < horizon:
                width = window if adaptive is None else max(window, adaptive.width())
                eff = self._effective_bounds(pending)
                known = [b for b in eff if b is not None]
                target = min(t + width, horizon)
                if width > window:
                    frontier = self._frontier(eff)
                    if target > frontier:
                        target = min(max(frontier, t + window), horizon)
                if not known:
                    target = horizon
                elif min(known) > target:
                    target = min(min(known), horizon)
                    report.fast_forwards += 1
                    obs_metrics.inc("sharded.fast_forwards")
                _observe_window_width(target - t)
                crossed = self._advance_all(
                    backend, target, pending, delivery_columns, report
                )
                if adaptive is not None:
                    adaptive.observe(crossed)
                report.windows += 1
                obs_metrics.inc("sharded.windows")
                t = target
            self._finish(report)
        finally:
            if self.processes:
                self._shutdown()
        report.wall_seconds = _wallclock.perf_counter() - started
        report.delivered = len(delivery_columns[0])
        report.report_hash = _hash_deliveries(delivery_columns)
        return report

    # -- startup -----------------------------------------------------

    def _start_workers(self, flows: Iterable[FlowSpec], backend_name: str) -> int:
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            raise ConfigurationError(
                "forked forwarding workers need the fork start method; "
                "pass processes=False"
            ) from None
        config = {
            "seed": self.seed,
            "backend": backend_name,
            "payload_size": self.payload_size,
            "crash_flag": self.crash_flag,
            "max_events": self.max_events,
        }
        for state in self.states:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_forwarding_shard_worker,
                args=(child_conn, state, config),
                name=f"repro-fwd-{state.shard}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        from repro.kernels import get_backend

        backend = get_backend()
        index = self.states[0].index
        buffers: List[List[Tuple[int, FlowSpec]]] = [[] for _ in range(self.shards)]
        count = 0
        for spec in flows:
            shard = self._shard_of_spec(spec)
            buffers[shard].append((count, spec))
            count += 1
            if len(buffers[shard]) >= FLOW_CHUNK:
                payload = _pack_flow_chunk(backend, buffers[shard], index)
                self._send(shard, ("flows", payload), sim_time=0.0)
                obs_metrics.inc("sharded.pipe_bytes", len(payload))
                buffers[shard].clear()
        for shard, buffered in enumerate(buffers):
            if buffered:
                payload = _pack_flow_chunk(backend, buffered, index)
                self._send(shard, ("flows", payload), sim_time=0.0)
                obs_metrics.inc("sharded.pipe_bytes", len(payload))
            self._send(shard, ("endflows",), sim_time=0.0)
        self._bounds: List[Optional[float]] = [None] * self.shards
        for shard in range(self.shards):
            verb, bound = self._recv(shard, sim_time=0.0)
            if verb != "ready":
                raise SimulationError(f"shard {shard}: expected ready, got {verb!r}")
            self._bounds[shard] = bound
        return count

    def _start_local(self, flows: Iterable[FlowSpec]) -> int:
        count = 0
        for spec in flows:
            state = self.states[self._shard_of_spec(spec)]
            _schedule_flow(state.net, spec, count, self.seed, self.payload_size)
            count += 1
        self._bounds = [state.loop.next_event_bound() for state in self.states]
        return count

    def _shard_of_spec(self, spec: FlowSpec) -> int:
        try:
            return self.assignment[spec.flow.src]
        except KeyError:
            raise ConfigurationError(
                f"flow source {spec.flow.src!r} is not a topology node"
            ) from None

    # -- window mechanics --------------------------------------------

    def _effective_bounds(self, pending) -> List[Optional[float]]:
        """Per shard: next-event bound folded with pending injections."""
        eff: List[Optional[float]] = []
        for shard in range(self.shards):
            bound = self._bounds[shard]
            if pending[shard]:
                earliest = min(item[0] for item in pending[shard])
                bound = earliest if bound is None else min(bound, earliest)
            eff.append(bound)
        return eff

    def _frontier(self, eff: Sequence[Optional[float]]) -> float:
        """Latest barrier provably free of unseen boundary arrivals."""
        frontier = math.inf
        for shard, out_la in self.out_lookaheads.items():
            bound = eff[shard]
            if bound is not None:
                frontier = min(frontier, bound + out_la)
        return frontier

    def _advance_all(
        self, backend, target, pending, delivery_columns, report
    ) -> int:
        """One barrier: inject pending rows, advance every shard, collect."""
        inject_payloads: List[bytes] = []
        for shard in range(self.shards):
            rows = pending[shard]
            if rows:
                rows.sort(key=lambda item: (item[0], item[1], item[2]))
                inject_payloads.append(
                    _pack_rows(
                        backend, [item[3] for item in rows], BOUNDARY_COLUMNS
                    )
                )
                rows.clear()
            else:
                inject_payloads.append(b"")
        crossed = 0
        if self.processes:
            for shard in range(self.shards):
                self._send(
                    shard, ("advance", target, inject_payloads[shard]), sim_time=target
                )
            for shard in range(self.shards):
                verb, *rest = self._recv(shard, sim_time=target)
                if verb != "ack":
                    raise SimulationError(
                        f"shard {shard}: expected ack, got {verb!r}"
                    )
                _ack_t, delta, egress, deliveries, _delivered, bound = rest
                self._bounds[shard] = bound
                report.events += delta
                report.per_shard_events[shard] += delta
                obs_metrics.inc(f"sharded.shard{shard}.events", delta)
                window_bytes = len(egress) + len(deliveries) + len(
                    inject_payloads[shard]
                )
                report.pipe_bytes += window_bytes
                obs_metrics.inc("sharded.pipe_bytes", window_bytes)
                crossed += self._route_egress(backend, shard, egress, pending)
                self._collect_deliveries(backend, deliveries, delivery_columns)
        else:
            for shard in range(self.shards):
                state = self.states[shard]
                if inject_payloads[shard]:
                    for row in _unpack_rows(
                        backend, inject_payloads[shard], BOUNDARY_COLUMNS
                    ):
                        arrival, ingress, packet = _row_to_packet(row, self.nodes)
                        state.net.inject_remote(
                            packet, ingress, max(arrival, state.loop.now)
                        )
                delta = state.loop.run_until(target, max_events=self.max_events)
                self._bounds[shard] = state.loop.next_event_bound()
                report.events += delta
                report.per_shard_events[shard] += delta
                if state.outbox:
                    egress = _pack_rows(
                        backend,
                        [
                            _boundary_row(arrival, ingress, packet, state.index)
                            for arrival, ingress, packet in state.outbox
                        ],
                        BOUNDARY_COLUMNS,
                    )
                    state.outbox.clear()
                    crossed += self._route_egress(backend, shard, egress, pending)
                self._collect_deliveries(
                    backend, _drain_deliveries(backend, state), delivery_columns
                )
        if crossed:
            report.boundary_packets += crossed
            obs_metrics.inc("sharded.boundary_packets", crossed)
        return crossed

    def _route_egress(self, backend, src_shard, egress, pending) -> int:
        if not egress:
            return 0
        rows = _unpack_rows(backend, egress, BOUNDARY_COLUMNS)
        for position, row in enumerate(rows):
            ingress = self.nodes[int(row[1])]
            dest = self.assignment[ingress]
            pending[dest].append((row[0], src_shard, position, row))
        return len(rows)

    def _collect_deliveries(self, backend, payload, delivery_columns) -> None:
        if not payload:
            return
        cols = backend.soa_unpack_f64(payload, DELIVERY_COLUMNS)
        for c in range(DELIVERY_COLUMNS):
            delivery_columns[c].extend(cols[c])

    def _finish(self, report: ForwardingReport) -> None:
        if not self.processes:
            return
        for shard in range(self.shards):
            self._send(shard, ("done",), sim_time=report.windows)
        for shard in range(self.shards):
            verb, _events_total, _delivered, registry_dict = self._recv(
                shard, sim_time=report.windows
            )
            if verb != "metrics":
                raise SimulationError(
                    f"shard {shard}: expected metrics, got {verb!r}"
                )
            registry = obs_metrics.current()
            if registry is not None:
                registry.merge_dict(registry_dict, prefix=f"shard{shard}.")


def _fork_available() -> bool:
    try:
        mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return False
    return True


# -- experiment façade --------------------------------------------------


def forwarding_experiment(
    topology: Topology,
    flows: Iterable[FlowSpec],
    horizon: float,
    *,
    seed: int = 0,
    shards: Optional[int] = None,
    scheduler: Optional[str] = None,
    partition_seed: int = 0,
    assignment: Optional[Dict[str, int]] = None,
    adaptive_window: Optional[bool] = None,
    endpoints: Optional[Iterable[str]] = None,
    default_queue_packets: int = 1000,
    payload_size: int = 512,
    fault_plan: Optional[FaultPlan] = None,
    processes: Optional[bool] = None,
    crash_flag: Optional[str] = None,
    max_events: int = 50_000_000,
) -> ForwardingReport:
    """Run a forwarding workload, monolithic or sharded.

    ``shards`` resolves like every execution knob (arg > ``REPRO_SHARDS``
    > 1).  With one shard the flows run on a single
    :class:`~repro.netsim.network.Network` — the reference whose
    ``report_hash`` every sharded configuration must reproduce.
    ``endpoints`` (default: all nodes) names the traffic endpoints;
    restricting it prunes the routing-table build to the destinations
    traffic can actually have.
    """
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    count = resolve_shard_count(shards)
    if count > 1:
        sim = ShardedForwardingSim(
            topology,
            count,
            seed=seed,
            scheduler=scheduler,
            partition_seed=partition_seed,
            assignment=assignment,
            adaptive_window=adaptive_window,
            endpoints=endpoints,
            default_queue_packets=default_queue_packets,
            payload_size=payload_size,
            fault_plan=fault_plan,
            processes=processes,
            crash_flag=crash_flag,
            max_events=max_events,
        )
        return sim.run(flows, horizon)

    scheduler_name = resolve_scheduler_name(scheduler)
    nodes = sorted(topology.nodes())
    endpoint_set = set(endpoints) if endpoints is not None else set(nodes)
    unknown = endpoint_set - set(nodes)
    if unknown:
        raise ConfigurationError(f"unknown endpoint nodes: {sorted(unknown)}")
    router = StaticRouter(topology)
    router.compute(destinations=sorted(endpoint_set))
    started = _wallclock.perf_counter()
    loop = EventLoop(scheduler=scheduler_name)
    net = Network(
        topology,
        loop=loop,
        seed=seed,
        default_queue_packets=default_queue_packets,
        router=router,
    )
    _install_fault_plan(fault_plan, net)
    index = {name: k for k, name in enumerate(nodes)}
    delivery_columns: List[List[float]] = [[] for _ in range(DELIVERY_COLUMNS)]
    delivered = [0]

    def handler(packet: Packet, now: float) -> None:
        delivered[0] += 1
        if packet.icmp is not None:
            row = (now, -1.0, float(index[packet.dst]), float(_KIND_ICMP))
        else:
            tcp = packet.tcp
            if tcp is not None and tcp.flags & TcpFlags.FIN:
                kind = _KIND_FIN
            elif tcp is not None and tcp.is_retransmission_ground_truth:
                kind = _KIND_RETRANS
            else:
                kind = _KIND_DATA
            row = (
                now,
                float(packet.flow_id) if packet.flow_id is not None else -1.0,
                float(tcp.seq) if tcp is not None else -1.0,
                float(kind),
            )
        for c in range(DELIVERY_COLUMNS):
            delivery_columns[c].append(row[c])

    for node in sorted(endpoint_set):
        net.attach_host(node, handler)
    flow_count = 0
    for spec in flows:
        if not topology.has_node(spec.flow.src):
            raise ConfigurationError(
                f"flow source {spec.flow.src!r} is not a topology node"
            )
        _schedule_flow(net, spec, flow_count, seed, payload_size)
        flow_count += 1
    events = loop.run_until(horizon, max_events=max_events)
    wall = _wallclock.perf_counter() - started
    return ForwardingReport(
        report_hash=_hash_deliveries(delivery_columns),
        flows=flow_count,
        delivered=len(delivery_columns[0]),
        events=events,
        shards=1,
        scheduler=scheduler_name,
        adaptive_window=resolve_adaptive_window(adaptive_window),
        windows=1,
        wall_seconds=wall,
        per_shard_events=[events],
    )


def iter_forwarding_flows(
    workload: str,
    endpoints: Sequence[str],
    *,
    seed: int = 0,
    horizon: float = 60.0,
    flows: Optional[int] = None,
    **overrides: object,
) -> Iterator[FlowSpec]:
    """Stream a :mod:`repro.workloads` workload onto topology endpoints.

    Lazily re-homes each generated spec's 5-tuple onto a deterministic
    (source, destination) endpoint pair — sha256 of the flow identity,
    so placement is a pure function of the workload, never of iteration
    interleaving — without materialising the spec list.  ``flows``
    caps the stream (None = whatever the workload emits within the
    horizon).
    """
    from dataclasses import replace as _replace

    from repro.kernels import derive_seed
    from repro.workloads import iter_workload_specs

    pool = list(endpoints)
    if len(pool) < 2:
        raise ConfigurationError("need at least two endpoint nodes")
    count = 0
    for spec in iter_workload_specs(workload, seed=seed, horizon=horizon, **overrides):
        if flows is not None and count >= flows:
            return
        key = derive_seed("forward-endpoint", spec.flow.packed(), spec.start)
        src = pool[key % len(pool)]
        dst = pool[(key % len(pool) + 1 + (key // len(pool)) % (len(pool) - 1)) % len(pool)]
        yield _replace(spec, flow=_replace(spec.flow, src=src, dst=dst))
        count += 1
