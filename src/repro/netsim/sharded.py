"""Sharded multi-core packet streams with conservative lookahead.

:class:`ShardedPacketEngine` is the process-parallel driver behind the
packet-level Blink experiment's ``shards=N`` runs (a keyword argument
of :func:`~repro.blink.packet_level.packet_level_experiment`; no flag
or environment variable selects it).  Flows are deterministically
assigned to shards (via the sha256-seeded topology partitioner over a star
fan-in topology), and each shard, in a forked worker process, renders
its flows' packets with
:func:`~repro.flows.generators.merge_flow_packets` — no event loop, just
one ordered merge over the shard's active flows.  The coordinator
advances all shards in lockstep *lookahead windows*, null-message
style: each ``("advance", T)`` message asks the worker for every record
at or before ``T``, and each ack returns the worker's own conservative
bound on its next record or flow start so the coordinator can
fast-forward across quiet regions.  Emitted packets cross back as
compact struct-of-arrays records (four float64 columns packed by
:func:`repro.kernels.soa_pack_f64`) over ``multiprocessing`` pipes.  The same
windowed protocol over a full topology-partitioned
:class:`~repro.netsim.network.Network` lives in
:class:`~repro.netsim.forwarding.ShardedForwardingSim`.

Determinism contract (the hard part, and non-negotiable): the
coordinator re-establishes the *global* ``(time, insertion_seq)`` event
order of the equivalent single-loop run before any observation fires.
That order is ``(time, rank, index_in_flow)``, where a flow's rank is
the order in which the single loop would have allocated its sequence
numbers: spec order for preloaded workloads, flow ``(start,
spec_index)`` order for lazy ones.  The coordinator computes every
rank up front and ships it with the flow table; each shard's merge
emits its records in exactly that key order, so a k-way merge of the
shard streams per window suffices, and ``PacketLevelReport.report_hash``
is byte-identical for any shard count and scheduler.

Shard assignment is a pure function of the workload and shard count —
no RNG streams, no dict order — so the same experiment always lands the
same flows on the same shards.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import time as _wallclock
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, ShardCrashError, SimulationError
from repro.faults.process import consume_crash_flag
from repro.flows.flow import FiveTuple
from repro.flows.generators import (
    FlowSpec,
    flow_packet_schedule,
    flow_stream_seed,
    merge_flow_packets,
)
from repro.netsim.events import MAX_EVENTS
from repro.netsim.topology import partition_nodes, star_topology
from repro.obs import metrics as obs_metrics

#: Leaf count of the fan-in topology flows are hashed onto before the
#: partitioner splits the leaves over shards.  Also the ceiling on the
#: shard count (each shard must own at least one leaf).
FLOW_SOURCE_NODES = 32

#: Columns of one packed packet record: time, flow rank, index-in-flow,
#: kind code (0 data, 1 retransmission, 2 FIN).
RECORD_COLUMNS = 4

_RECORD_DATA = 0
_RECORD_RETRANS = 1
_RECORD_FIN = 2

#: Seconds between liveness probes while waiting on a shard pipe.
_POLL_INTERVAL_S = 0.05


def resolve_shard_count(count: Optional[int] = None) -> int:
    """Validate a shard count; None means 1 (in-process)."""
    if count is None:
        return 1
    count = int(count)
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if count > FLOW_SOURCE_NODES:
        raise ConfigurationError(
            f"shard count {count} exceeds the {FLOW_SOURCE_NODES}-way "
            "flow fan-in; raise FLOW_SOURCE_NODES to shard wider"
        )
    return count


class AdaptiveWindow:
    """Bounded multiplicative controller for the lookahead window width.

    The fixed conservative window is pessimal on sparse-cut workloads:
    shards synchronise every ``L`` seconds even when no boundary
    traffic crossed for thousands of windows.  This controller widens
    the window geometrically while windows stay quiet (no boundary
    records) and snaps back to the base width the moment boundary
    traffic reappears:

    * ``width() = base_s * factor`` with ``factor`` in
      ``[1, max_factor]``;
    * ``observe(n)`` with ``n == 0`` grows ``factor`` by ``grow``
      (clamped), with ``n > 0`` resets it to 1.

    The controller only *proposes* a width — the forwarding engine
    clamps the proposal to the per-shard bound-plus-outgoing-lookahead
    frontier its causality argument proves safe.  Determinism: the factor
    is a pure function of the observed boundary-record counts, which
    are themselves deterministic, so adaptive runs produce the same
    barrier sequence on every execution.
    """

    def __init__(
        self,
        base_s: float,
        grow: float = 2.0,
        max_factor: float = 32.0,
    ):
        if base_s <= 0:
            raise ConfigurationError(f"base_s must be positive, got {base_s}")
        if grow <= 1.0:
            raise ConfigurationError(f"grow must exceed 1, got {grow}")
        if max_factor < 1.0:
            raise ConfigurationError(
                f"max_factor must be >= 1, got {max_factor}"
            )
        self.base_s = base_s
        self.grow = grow
        self.max_factor = max_factor
        self.factor = 1.0
        self.grows = 0
        self.resets = 0

    def width(self) -> float:
        """The current window-width proposal in seconds."""
        return self.base_s * self.factor

    def observe(self, boundary_records: int) -> None:
        """Feed back one window's boundary-record count."""
        if boundary_records > 0:
            if self.factor != 1.0:
                self.factor = 1.0
                self.resets += 1
                obs_metrics.inc("sharded.adaptive_resets")
        elif self.factor < self.max_factor:
            self.factor = min(self.factor * self.grow, self.max_factor)
            self.grows += 1
            obs_metrics.inc("sharded.adaptive_grows")


def _observe_window_width(width: float) -> None:
    """Record the width actually used for one barrier window."""
    obs_metrics.gauge_set("sharded.window_width", width)
    obs_metrics.observe("sharded.window_width_s", width)


# -- struct-of-arrays flow table ---------------------------------------


#: Numeric FlowSpec fields, in packed column order.
_FLOW_NUMERIC_FIELDS = (
    "start",
    "duration",
    "packet_rate",
    "retransmit_probability",
)


def pack_flow_table(
    specs: Sequence[FlowSpec], indices: Sequence[int]
) -> Tuple[bytes, List[str], List[str]]:
    """Serialize flows ``indices`` of ``specs`` as a struct-of-arrays.

    Numeric fields travel as one kernels-packed float64 buffer (exact
    round-trip for every float and every integer below 2**53); the two
    address strings ride alongside as plain lists.  Column order is
    fixed so both ends agree without a schema handshake.
    """
    from repro.kernels import soa_pack_f64

    picked = [specs[i] for i in indices]
    columns: List[List[float]] = [
        [float(i) for i in indices],
        *[
            [float(getattr(spec, name)) for spec in picked]
            for name in _FLOW_NUMERIC_FIELDS
        ],
        [float(spec.flow.src_port) for spec in picked],
        [float(spec.flow.dst_port) for spec in picked],
        [float(spec.flow.protocol) for spec in picked],
        [1.0 if spec.malicious else 0.0 for spec in picked],
        [1.0 if spec.sends_fin else 0.0 for spec in picked],
        [1.0 if spec.constant_rate else 0.0 for spec in picked],
    ]
    payload = soa_pack_f64(columns)
    return (
        payload,
        [spec.flow.src for spec in picked],
        [spec.flow.dst for spec in picked],
    )


def unpack_flow_table(
    payload: bytes, srcs: Sequence[str], dsts: Sequence[str]
) -> List[Tuple[int, FlowSpec]]:
    """Inverse of :func:`pack_flow_table`: ``[(global_index, spec)]``."""
    from repro.kernels import soa_unpack_f64

    # index column + numeric fields + ports/protocol + three bool flags.
    columns = soa_unpack_f64(payload, 1 + len(_FLOW_NUMERIC_FIELDS) + 3 + 3)
    (
        indices,
        starts,
        durations,
        rates,
        retrans,
        src_ports,
        dst_ports,
        protocols,
        malicious,
        fins,
        constant,
    ) = columns
    out: List[Tuple[int, FlowSpec]] = []
    for k in range(len(indices)):
        flow = FiveTuple(
            src=srcs[k],
            dst=dsts[k],
            src_port=int(src_ports[k]),
            dst_port=int(dst_ports[k]),
            protocol=int(protocols[k]),
        )
        out.append(
            (
                int(indices[k]),
                FlowSpec(
                    flow=flow,
                    start=starts[k],
                    duration=durations[k],
                    packet_rate=rates[k],
                    malicious=bool(malicious[k]),
                    retransmit_probability=retrans[k],
                    sends_fin=bool(fins[k]),
                    constant_rate=bool(constant[k]),
                ),
            )
        )
    return out


# -- deterministic flow -> shard assignment -----------------------------


def assign_flows_to_shards(
    specs: Sequence[FlowSpec], shards: int, seed: int = 0
) -> List[int]:
    """Shard index per spec: a pure function of (workload, shard count).

    Flows hash onto the :data:`FLOW_SOURCE_NODES` leaves of a star
    fan-in topology by sha256 of their identity (5-tuple + start, the
    same identity :func:`~repro.flows.generators.flow_stream_seed`
    keys RNG streams by), and the leaves are split over shards by the
    latency-aware topology partitioner — so the packet driver and the
    general network engine share one assignment mechanism.
    """
    from repro.kernels import derive_seed

    if shards == 1:
        return [0] * len(specs)
    topo = star_topology(FLOW_SOURCE_NODES)
    node_assignment = partition_nodes(topo, shards, seed=seed)
    leaf_shard = [node_assignment[f"src{k}"] for k in range(FLOW_SOURCE_NODES)]
    return [
        leaf_shard[
            derive_seed("shard-flow", spec.flow.packed(), spec.start)
            % FLOW_SOURCE_NODES
        ]
        for spec in specs
    ]


# -- worker process -----------------------------------------------------


def _shard_worker(conn, config: Dict[str, object]) -> None:
    """One shard: a merged packet stream over a subset of flows,
    advanced in lookahead windows by the coordinator.

    Protocol (all messages are tuples, first element the verb):

    ``("flows", payload, srcs, dsts, ranks)`` <- flow table, SoA-packed, and ranks
    ``("ready", bound)``                 -> will obey advances
    ``("advance", T)``                   <- emit every record at or before T
    ``("ack", T, events, payload, bound, packets)`` -> window results
    ``("done",)``                        <- finish
    ``("metrics", events, packets, registry_dict)`` -> final totals
    ``("error", message)``               -> any failure, then exit

    ``events`` counts what the equivalent single loop would have
    dispatched for these flows: every record, plus — for lazy
    (start-time) allocation — one flow-start event per flow.
    """
    shard_index = config["shard"]
    crash_flag = config.get("crash_flag") or ""
    try:
        import random as _random

        from repro.kernels import soa_pack_f64

        verb, payload, srcs, dsts, ranks = conn.recv()
        if verb != "flows":
            raise SimulationError(f"shard {shard_index}: expected flows, got {verb!r}")
        table = unpack_flow_table(payload, srcs, dsts)
        flows = sorted(
            (spec.start, rank, spec) for (_fid, spec), rank in zip(table, ranks)
        )
        seed = config["seed"]
        schedules = (
            (
                rank,
                spec,
                *flow_packet_schedule(
                    spec, _random.Random(flow_stream_seed(seed, spec))
                ),
            )
            for _start, rank, spec in flows
        )
        if config["preload"]:
            # Like the single loop's preload: every schedule is built at
            # setup, outside the timed run.
            schedules = list(schedules)
            starts: List[float] = []
        else:
            # Schedules are built as the merge admits flows, so the
            # worker holds only its active flows' packets.
            starts = [start for start, _rank, _spec in flows]
        stream = merge_flow_packets(schedules)
        head = next(stream, None)
        started = 0

        def next_bound() -> Optional[float]:
            bound = head[0] if head is not None else None
            if started < len(starts) and (bound is None or starts[started] < bound):
                bound = starts[started]
            return bound

        conn.send(("ready", next_bound()))

        with_trace = bool(config["with_trace"])
        registry = obs_metrics.MetricRegistry()
        events_total = 0
        packets = 0
        with obs_metrics.activate(registry):
            while True:
                message = conn.recv()
                if message[0] == "done":
                    break
                if message[0] != "advance":
                    raise SimulationError(
                        f"shard {shard_index}: unexpected {message[0]!r}"
                    )
                consume_crash_flag(crash_flag)
                target = message[1]
                columns: List[List[float]] = [[], [], [], []]
                times, record_ranks, indices, codes = columns
                emitted = 0
                while head is not None and head[0] <= target:
                    if with_trace:
                        t, rank, j, _spec, retransmission, fin = head
                        times.append(t)
                        record_ranks.append(rank)
                        indices.append(j)
                        codes.append(
                            _RECORD_FIN
                            if fin
                            else _RECORD_RETRANS if retransmission else _RECORD_DATA
                        )
                    emitted += 1
                    head = next(stream, None)
                first_start = started
                while started < len(starts) and starts[started] <= target:
                    started += 1
                delta = emitted + started - first_start
                events_total += delta
                packets += emitted
                obs_metrics.inc("netsim.merge.records", emitted)
                obs_metrics.inc("netsim.merge.flow_starts", started - first_start)
                conn.send(
                    (
                        "ack",
                        target,
                        delta,
                        soa_pack_f64(columns) if times else b"",
                        next_bound(),
                        packets,
                    )
                )
        conn.send(("metrics", events_total, packets, registry.to_dict()))
    except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


# -- coordinator --------------------------------------------------------


@dataclass
class ShardedRunResult:
    """What a sharded packet run produced, beyond the observations."""

    events: int
    packets: int
    shards: int
    windows: int = 0
    fast_forwards: int = 0
    pipe_bytes: int = 0
    per_shard_events: List[int] = field(default_factory=list)


class ShardPipeMixin:
    """Pipe plumbing shared by the process-parallel coordinators.

    Owns ``self._procs`` / ``self._conns`` (parallel lists of worker
    processes and parent pipe ends) and provides crash-aware send /
    receive plus orderly shutdown.  Both :class:`ShardedPacketEngine`
    and :class:`repro.netsim.forwarding.ShardedForwardingSim` drive
    their workers through this exact protocol skin.
    """

    _procs: List[mp.process.BaseProcess]
    _conns: List

    def _send(self, shard: int, message: tuple, sim_time: float) -> None:
        try:
            self._conns[shard].send(message)
        except (BrokenPipeError, OSError):
            raise ShardCrashError(
                f"shard {shard} worker died (pipe closed on send)",
                sim_time=sim_time,
                shard=shard,
            ) from None

    def _recv(self, shard: int, sim_time: float) -> tuple:
        """Receive one message, failing fast if the worker died.

        A killed worker (``kill -9``, OOM, chaos flag) never closes the
        protocol cleanly; polling with a liveness probe turns the
        would-be-forever pipe read into a :class:`ShardCrashError`
        carrying the simulation time being synchronised and the shard.
        """
        conn = self._conns[shard]
        proc = self._procs[shard]
        while True:
            try:
                if conn.poll(_POLL_INTERVAL_S):
                    message = conn.recv()
                    break
            except (EOFError, OSError):
                raise ShardCrashError(
                    f"shard {shard} worker died (pipe closed)",
                    sim_time=sim_time,
                    shard=shard,
                ) from None
            if not proc.is_alive():
                raise ShardCrashError(
                    f"shard {shard} worker exited with code "
                    f"{proc.exitcode} at t={sim_time}",
                    sim_time=sim_time,
                    shard=shard,
                )
        if message[0] == "error":
            raise SimulationError(f"shard {shard} failed: {message[1]}")
        return message

    def _shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._conns = []
        self._procs = []


class ShardedPacketEngine(ShardPipeMixin):
    """Coordinator for the process-parallel packet-level workload.

    Usage::

        engine = ShardedPacketEngine(specs, seed=seed + 2, horizon=h,
                                     shards=4, preload=True)
        engine.prepare()                      # fork, ship flows and ranks
        result = engine.run(on_packet=cb)     # windowed advance + merge

    ``prepare`` forks the workers and ships each its flow table with
    every flow's rank.  The ``preload`` flag mirrors the single loop's:
    preloaded workers build every packet schedule during ``prepare``
    and the ranks reproduce setup-time allocation (rank = spec index);
    otherwise workers build schedules as their merges admit flows,
    inside the timed ``run``, and the ranks reproduce start-time
    allocation (rank = position in ``(start, spec index)`` order).

    ``on_packet(spec, t, is_retransmission, is_fin)`` fires in the
    exact global event order of the equivalent 1-shard run.  The run
    raises :class:`SimulationError` once the shards' summed events reach
    ``max_events``.
    """

    def __init__(
        self,
        specs: Sequence[FlowSpec],
        *,
        seed: int,
        horizon: float,
        shards: int,
        preload: bool = False,
        with_trace: bool = True,
        window_s: Optional[float] = None,
        crash_flag: Optional[str] = None,
        max_events: int = MAX_EVENTS,
    ):
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        self.specs = list(specs)
        self.seed = seed
        self.horizon = horizon
        self.shards = resolve_shard_count(shards)
        self.preload = preload
        self.with_trace = with_trace
        self.crash_flag = crash_flag
        self.max_events = max_events
        if window_s is None:
            # Without record shipping there is nothing to merge, so one
            # window spans the horizon and shards run free; with records
            # the window bounds coordinator-side merge memory.
            window_s = horizon if not with_trace else max(horizon / 64.0, 1e-9)
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.window_s = window_s
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List = []
        self._by_rank: List[FlowSpec] = []
        self._bounds: List[Optional[float]] = []
        self._pipe_bytes = 0
        self._prepared = False

    # -- lifecycle ---------------------------------------------------

    def prepare(self) -> None:
        """Fork the shard workers and ship flow tables with ranks."""
        if self._prepared:
            raise SimulationError("engine already prepared")
        specs = self.specs
        assignment = assign_flows_to_shards(specs, self.shards)
        by_shard: List[List[int]] = [[] for _ in range(self.shards)]
        for index, shard in enumerate(assignment):
            by_shard[shard].append(index)
        order = (
            range(len(specs))
            if self.preload
            else sorted(range(len(specs)), key=lambda i: (specs[i].start, i))
        )
        ranks = [0] * len(specs)
        for rank, index in enumerate(order):
            ranks[index] = rank
        self._by_rank = [specs[index] for index in order]

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        for shard in range(self.shards):
            parent_conn, child_conn = ctx.Pipe()
            config = {
                "shard": shard,
                "seed": self.seed,
                "preload": self.preload,
                "with_trace": self.with_trace,
                "crash_flag": self.crash_flag,
            }
            proc = ctx.Process(
                target=_shard_worker,
                args=(child_conn, config),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

        try:
            for shard in range(self.shards):
                indices = by_shard[shard]
                payload, srcs, dsts = pack_flow_table(specs, indices)
                self._conns[shard].send(
                    ("flows", payload, srcs, dsts, [ranks[i] for i in indices])
                )
                self._pipe_bytes += len(payload)
            for shard in range(self.shards):
                verb, bound = self._recv(shard, sim_time=0.0)
                if verb != "ready":
                    raise SimulationError(
                        f"shard {shard}: expected ready, got {verb!r}"
                    )
                self._bounds.append(bound)
        except BaseException:
            self._shutdown()
            raise
        self._prepared = True

    def run(
        self,
        on_packet: Optional[Callable[[FlowSpec, float, bool, bool], None]] = None,
    ) -> ShardedRunResult:
        """Advance all shards to the horizon; dispatch merged records."""
        if not self._prepared:
            self.prepare()
        from repro.kernels import soa_unpack_f64

        by_rank = self._by_rank
        result = ShardedRunResult(
            events=0,
            packets=0,
            shards=self.shards,
            per_shard_events=[0] * self.shards,
        )
        try:
            t = 0.0
            horizon = self.horizon
            while t < horizon:
                target = min(t + self.window_s, horizon)
                _observe_window_width(target - t)
                known = [b for b in self._bounds if b is not None]
                if not known:
                    target = horizon
                elif min(known) > target:
                    # Null-message fast-forward: every shard has
                    # promised silence past the window, so jump the
                    # barrier straight to the earliest promise.
                    target = min(min(known), horizon)
                    result.fast_forwards += 1
                    obs_metrics.inc("sharded.fast_forwards")
                streams: List[Iterable[Tuple[float, float, float, float]]] = []
                window_bytes = 0
                first_ack = last_ack = 0.0
                for shard in range(self.shards):
                    self._send(shard, ("advance", target), sim_time=t)
                for shard in range(self.shards):
                    verb, *rest = self._recv(shard, sim_time=target)
                    if verb != "ack":
                        raise SimulationError(
                            f"shard {shard}: expected ack, got {verb!r}"
                        )
                    ack_t, delta, payload, bound, packets = rest
                    stamp = _wallclock.perf_counter()
                    if shard == 0:
                        first_ack = last_ack = stamp
                    else:
                        last_ack = stamp
                    self._bounds[shard] = bound
                    result.per_shard_events[shard] += delta
                    result.events += delta
                    obs_metrics.inc(f"sharded.shard{shard}.events", delta)
                    if payload:
                        window_bytes += len(payload)
                        obs_metrics.inc(
                            f"sharded.shard{shard}.pipe_bytes", len(payload)
                        )
                        streams.append(
                            zip(*soa_unpack_f64(payload, RECORD_COLUMNS))
                        )
                if result.events >= self.max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events} "
                        f"before reaching t={target}",
                        sim_time=target,
                    )
                result.windows += 1
                result.pipe_bytes += window_bytes
                self._pipe_bytes += window_bytes
                obs_metrics.inc("sharded.windows")
                obs_metrics.inc("sharded.pipe_bytes", window_bytes)
                obs_metrics.gauge_set("sharded.last_window_bytes", window_bytes)
                obs_metrics.observe(
                    "sharded.horizon_stall_s", max(0.0, last_ack - first_ack)
                )
                if streams and on_packet is not None:
                    merged = (
                        heapq.merge(*streams) if len(streams) > 1 else streams[0]
                    )
                    # (time, rank, index) is the single-loop order.
                    for rec_t, rank, _index, code in merged:
                        on_packet(
                            by_rank[int(rank)],
                            rec_t,
                            code == _RECORD_RETRANS,
                            code == _RECORD_FIN,
                        )
                t = target
            packets_total = 0
            for shard in range(self.shards):
                self._send(shard, ("done",), sim_time=horizon)
            for shard in range(self.shards):
                verb, events_total, packets, registry_dict = self._recv(
                    shard, sim_time=horizon
                )
                if verb != "metrics":
                    raise SimulationError(
                        f"shard {shard}: expected metrics, got {verb!r}"
                    )
                packets_total += packets
                registry = obs_metrics.current()
                if registry is not None:
                    # Distinct per-shard labels: same-named counters
                    # from different shards must not silently sum.
                    registry.merge_dict(registry_dict, prefix=f"shard{shard}.")
            result.packets = packets_total
        finally:
            self._shutdown()
        return result

def degrade_to_single_shard(
    rebuild: Callable[[int], object]
) -> Callable[[BaseException], Optional[Callable[[], object]]]:
    """A :meth:`ResilientRunner.run` ``degrade`` hook: after a
    :class:`ShardCrashError`, retries call ``rebuild(1)`` — the
    single-shard path shares no worker processes, so whatever killed the
    shard (OOM, cgroup limits, chaos) cannot recur there."""

    def hook(exc: BaseException) -> Optional[Callable[[], object]]:
        if isinstance(exc, ShardCrashError):
            return lambda: rebuild(1)
        return None

    return hook
