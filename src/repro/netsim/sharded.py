"""Sharded multi-core discrete-event simulation with conservative lookahead.

:class:`ShardedPacketEngine` is the process-parallel driver behind the
packet-level Blink experiment.  Flows are deterministically assigned
to shards (via the sha256-seeded topology partitioner over a star
fan-in topology), each shard runs its own
:class:`~repro.netsim.events.EventLoop` in a forked worker process,
and the coordinator advances all shards in lockstep *lookahead
windows*, null-message style: each ``("advance", T)`` message promises
the worker that no input will ever arrive before ``T``, and each ack
returns the worker's own conservative bound on its next event so the
coordinator can fast-forward across quiet regions.  Emitted packets
cross back as compact struct-of-arrays records (four float64 columns
packed by the ``kernels`` backends) over ``multiprocessing`` pipes.
The same windowed protocol over a full topology-partitioned
:class:`~repro.netsim.network.Network` lives in
:class:`~repro.netsim.forwarding.ShardedForwardingSim`.

Determinism contract (the hard part, and non-negotiable): the
coordinator re-establishes the *global* ``(time, insertion_seq)`` event
order of the equivalent single-loop run before any observation fires.
Every packet's global sequence number is reconstructed analytically —
``base(flow) + index_in_flow`` where the bases are prefix sums over
per-flow packet counts in exactly the order the single loop would have
allocated sequence numbers (spec order for preloaded workloads, flow
``(start, spec_index)`` order for lazy ones).  Each shard's record
stream is provably already sorted by that key, so a k-way merge per
window suffices, and ``PacketLevelReport.report_hash`` is byte-identical
for any shard count, scheduler, and kernel backend.

Shard assignment is a pure function of the workload and shard count —
no RNG streams, no dict order — so the same experiment always lands the
same flows on the same shards.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import time as _wallclock
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, ShardCrashError, SimulationError
from repro.faults.process import consume_crash_flag
from repro.flows.flow import FiveTuple
from repro.flows.generators import FlowSpec, flow_packet_schedule, flow_stream_seed
from repro.netsim.events import (
    EventLoop,
    resolve_scheduler_name,
    suggest_bucket_width,
)
from repro.netsim.topology import partition_nodes, star_topology
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

#: Environment variable naming the shard count, mirroring
#: ``REPRO_SCHEDULER``: an execution knob, never part of cache keys.
SHARDS_ENV = "REPRO_SHARDS"

#: Environment variable enabling adaptive lookahead windows, mirroring
#: ``REPRO_SHARDS``: an execution knob, never part of cache keys.
ADAPTIVE_WINDOW_ENV = "REPRO_ADAPTIVE_WINDOW"

#: Leaf count of the fan-in topology flows are hashed onto before the
#: partitioner splits the leaves over shards.  Also the ceiling on the
#: shard count (each shard must own at least one leaf).
FLOW_SOURCE_NODES = 32

#: Columns of one packed packet record: time, flow id, index-in-flow,
#: kind code (0 data, 1 retransmission, 2 FIN).
RECORD_COLUMNS = 4

_RECORD_DATA = 0
_RECORD_RETRANS = 1
_RECORD_FIN = 2

#: Seconds between liveness probes while waiting on a shard pipe.
_POLL_INTERVAL_S = 0.05

#: Event-time sample size for shard-local calendar bucket tuning.
_TUNE_SAMPLE_CAP = 4096


def resolve_shard_count(count: Optional[int] = None) -> int:
    """Resolve a shard count: explicit arg > ``REPRO_SHARDS`` > 1."""
    if count is None:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return 1
        try:
            count = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{SHARDS_ENV} must be an integer, got {raw!r}"
            ) from None
    count = int(count)
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if count > FLOW_SOURCE_NODES:
        raise ConfigurationError(
            f"shard count {count} exceeds the {FLOW_SOURCE_NODES}-way "
            "flow fan-in; raise FLOW_SOURCE_NODES to shard wider"
        )
    return count


def resolve_adaptive_window(flag: Optional[bool] = None) -> bool:
    """Resolve the adaptive-window knob: arg > env > off.

    The environment value follows the usual boolean spelling: ``1``,
    ``true``, ``yes``, ``on`` (case-insensitive) enable, ``0``,
    ``false``, ``no``, ``off`` and the empty string disable; anything
    else is a configuration error.
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(ADAPTIVE_WINDOW_ENV, "").strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return False
    if raw in ("1", "true", "yes", "on"):
        return True
    raise ConfigurationError(
        f"{ADAPTIVE_WINDOW_ENV} must be a boolean flag, got {raw!r}"
    )


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

    The controller only *proposes* a width — each engine clamps the
    proposal to whatever barrier its own causality argument proves safe
    (the packet engine's shards exchange no inputs, so any width is
    safe there; the network engines clamp to the per-shard
    bound-plus-outgoing-lookahead frontier).  Determinism: the factor
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
    from repro.kernels import get_backend

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
    payload = get_backend().soa_pack_f64(columns)
    return (
        payload,
        [spec.flow.src for spec in picked],
        [spec.flow.dst for spec in picked],
    )


def unpack_flow_table(
    payload: bytes, srcs: Sequence[str], dsts: Sequence[str]
) -> List[Tuple[int, FlowSpec]]:
    """Inverse of :func:`pack_flow_table`: ``[(global_index, spec)]``."""
    from repro.kernels import get_backend

    # index column + numeric fields + ports/protocol + three bool flags.
    columns = get_backend().soa_unpack_f64(
        payload, 1 + len(_FLOW_NUMERIC_FIELDS) + 3 + 3
    )
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


def compute_global_bases(
    specs: Sequence[FlowSpec], counts: Sequence[int], preload: bool
) -> List[int]:
    """Global insertion-sequence base per flow.

    Reconstructs, without running anything, the first sequence number
    the equivalent single event loop would hand to each flow's packet
    batch.  Preloaded workloads allocate at setup in spec order from 0;
    lazy workloads first allocate one flow-start transient per spec
    (sequences ``0..F-1``), then each start — firing in
    ``(start_time, spec_index)`` order — allocates its ``n`` batch
    slots plus one FIN slot.  Within a flow, packet ``j`` owns
    ``base + j`` and the FIN owns ``base + n``; merging shard streams
    by ``(time, base + j)`` therefore replays the exact single-loop
    tie-break order.
    """
    n = len(specs)
    if len(counts) != n:
        raise ConfigurationError("counts must align with specs")
    order = (
        range(n)
        if preload
        else sorted(range(n), key=lambda i: (specs[i].start, i))
    )
    bases = [0] * n
    cursor = 0 if preload else n
    for i in order:
        bases[i] = cursor
        cursor += counts[i] + (1 if specs[i].sends_fin else 0)
    return bases


# -- worker process -----------------------------------------------------


def _shard_worker(conn, config: Dict[str, object]) -> None:
    """One shard: an event loop over a subset of flows, advanced in
    lookahead windows by the coordinator.

    Protocol (all messages are tuples, first element the verb):

    ``("flows", payload, srcs, dsts)``   <- flow table, SoA-packed
    ``("counts", [(fid, n)...], bound)`` -> per-flow packet counts
    ``("ready", bound)``                 -> events scheduled, will obey advances
    ``("advance", T)``                   <- run until T (inclusive)
    ``("ack", T, events, payload, n, bound, packets)`` -> window results
    ``("done",)``                        <- finish
    ``("metrics", events, packets, registry_dict)`` -> final totals
    ``("error", message)``               -> any failure, then exit
    """
    shard_index = config["shard"]
    crash_flag = config.get("crash_flag") or ""
    try:
        import random as _random

        from repro.kernels import get_backend

        backend = get_backend(config.get("backend"))
        verb, payload, srcs, dsts = conn.recv()
        if verb != "flows":
            raise SimulationError(f"shard {shard_index}: expected flows, got {verb!r}")
        table = unpack_flow_table(payload, srcs, dsts)

        seed = config["seed"]
        schedules: List[Tuple[int, FlowSpec, List[float], List[bool]]] = []
        counts: List[Tuple[int, int]] = []
        for fid, spec in table:
            times, flags = flow_packet_schedule(
                spec, _random.Random(flow_stream_seed(seed, spec))
            )
            schedules.append((fid, spec, times, flags))
            counts.append((fid, len(times)))

        # Shard-local calendar tuning: this shard's event population is
        # known before anything is scheduled, so size the calendar
        # buckets from *its own* observed inter-event gaps rather than
        # the global default — shards with sparse schedules get wide
        # buckets, dense ones narrow.  Tuning never changes results
        # (schedulers are byte-identical by contract), only speed.
        bucket_width = None
        if resolve_scheduler_name(config.get("scheduler")) == "calendar":
            sample: List[float] = []
            for _fid, spec, times, _flags in schedules:
                sample.append(spec.start)
                sample.extend(times[: _TUNE_SAMPLE_CAP - len(sample)])
                if len(sample) >= _TUNE_SAMPLE_CAP:
                    break
            bucket_width = suggest_bucket_width(sample)
        loop = EventLoop(
            scheduler=config.get("scheduler"), bucket_width=bucket_width
        )
        with_trace = bool(config["with_trace"])
        records: List[Tuple[float, int, int, int]] = []
        packets = [0]

        if with_trace:

            def emit(t: float, fid: int, j: int, code: int) -> None:
                packets[0] += 1
                records.append((t, fid, j, code))

        else:

            def emit(t: float, fid: int, j: int, code: int) -> None:
                packets[0] += 1

        def make_fire(times, flags, fid):
            cursor = [0]

            def fire() -> None:
                i = cursor[0]
                cursor[0] = i + 1
                emit(
                    times[i],
                    fid,
                    i,
                    _RECORD_RETRANS if flags[i] else _RECORD_DATA,
                )

            return fire

        if config["preload"]:
            # Mirrors the preload block of packet_level_experiment:
            # batch + FIN per spec, in spec order, before any event runs.
            for fid, spec, times, flags in schedules:
                if times:
                    loop.schedule_batch_at(
                        times, make_fire(times, flags, fid), name="flow.packet"
                    )
                if spec.sends_fin:
                    loop.schedule_transient(
                        spec.end,
                        lambda fid=fid, n=len(times): emit(
                            loop.now, fid, n, _RECORD_FIN
                        ),
                        name="flow.fin",
                    )
        else:
            # Mirrors schedule_workload: a flow-start transient per
            # spec; the batch + FIN land when the start fires.  The
            # schedules are the cached phase-1 ones — identical values,
            # identical event structure, no second RNG pass.
            for fid, spec, times, flags in schedules:

                def start(
                    fid: int = fid,
                    spec: FlowSpec = spec,
                    times: List[float] = times,
                    flags: List[bool] = flags,
                ) -> None:
                    if times:
                        loop.schedule_batch_at(
                            times, make_fire(times, flags, fid), name="flow.packet"
                        )
                    if spec.sends_fin:
                        loop.schedule_transient(
                            spec.end,
                            lambda fid=fid, n=len(times): emit(
                                loop.now, fid, n, _RECORD_FIN
                            ),
                            name="flow.fin",
                        )

                loop.schedule_transient(spec.start, start, name="flow.start")

        conn.send(("counts", counts, loop.next_event_bound()))
        conn.send(("ready", loop.next_event_bound()))

        registry = obs_metrics.MetricRegistry()
        events_total = 0
        remaining = int(config.get("max_events") or 50_000_000)
        with obs_metrics.activate(registry):
            if bucket_width is not None:
                obs_metrics.gauge_set("calendar.bucket_width", bucket_width)
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
                delta = loop.run_until(target, max_events=remaining)
                remaining -= delta
                events_total += delta
                if records:
                    packed = backend.soa_pack_f64(
                        [
                            [r[0] for r in records],
                            [float(r[1]) for r in records],
                            [float(r[2]) for r in records],
                            [float(r[3]) for r in records],
                        ]
                    )
                    count = len(records)
                    records.clear()
                else:
                    packed = b""
                    count = 0
                conn.send(
                    (
                        "ack",
                        target,
                        delta,
                        packed,
                        count,
                        loop.next_event_bound(),
                        packets[0],
                    )
                )
        conn.send(("metrics", events_total, packets[0], registry.to_dict()))
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
        engine.prepare()                      # fork, ship flows, bases
        result = engine.run(on_packet=cb)     # windowed advance + merge

    ``prepare`` always generates every flow's packet schedule inside the
    workers (the determinism contract needs global packet counts before
    the first record can be admitted), so — unlike the single-loop lazy
    mode — generation cost never lands in the timed ``run`` phase.  The
    ``preload`` flag still matters: it selects which single-loop
    tie-break order (setup-time vs start-time sequence allocation) the
    merge reproduces.

    ``on_packet(spec, t, is_retransmission, is_fin)`` fires in the
    exact global event order of the equivalent 1-shard run.  When
    ``advance_loop`` is set on :meth:`run`, the coordinator-side event
    loop is advanced to each record's timestamp first, so callbacks may
    schedule and observe follow-on events (the through-link replay).
    """

    def __init__(
        self,
        specs: Sequence[FlowSpec],
        *,
        seed: int,
        horizon: float,
        shards: int,
        scheduler: Optional[str] = None,
        preload: bool = False,
        with_trace: bool = True,
        window_s: Optional[float] = None,
        adaptive_window: Optional[bool] = None,
        crash_flag: Optional[str] = None,
        max_events: int = 50_000_000,
    ):
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        self.specs = list(specs)
        self.seed = seed
        self.horizon = horizon
        self.shards = resolve_shard_count(shards)
        self.scheduler = resolve_scheduler_name(scheduler)
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
        # Packet-engine shards exchange no inputs (records only flow
        # worker -> coordinator), so *any* window width is causally
        # safe: the adaptive proposal needs no clamping here beyond
        # the horizon.  Quiet windows are ones that shipped no records.
        self.adaptive: Optional[AdaptiveWindow] = (
            AdaptiveWindow(window_s)
            if resolve_adaptive_window(adaptive_window)
            else None
        )
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List = []
        self._bases: List[int] = []
        self._bounds: List[Optional[float]] = []
        self._pipe_bytes = 0
        self._prepared = False

    # -- lifecycle ---------------------------------------------------

    def prepare(self) -> None:
        """Fork the shard workers, ship flow tables, compute bases."""
        if self._prepared:
            raise SimulationError("engine already prepared")
        assignment = assign_flows_to_shards(self.specs, self.shards)
        by_shard: List[List[int]] = [[] for _ in range(self.shards)]
        for index, shard in enumerate(assignment):
            by_shard[shard].append(index)

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        from repro.kernels import resolve_backend_name

        backend_name = resolve_backend_name()
        for shard in range(self.shards):
            parent_conn, child_conn = ctx.Pipe()
            config = {
                "shard": shard,
                "seed": self.seed,
                "scheduler": self.scheduler,
                "preload": self.preload,
                "with_trace": self.with_trace,
                "backend": backend_name,
                "crash_flag": self.crash_flag,
                "max_events": self.max_events,
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

        counts = [0] * len(self.specs)
        try:
            for shard in range(self.shards):
                payload, srcs, dsts = pack_flow_table(self.specs, by_shard[shard])
                self._conns[shard].send(("flows", payload, srcs, dsts))
                self._pipe_bytes += len(payload)
            for shard in range(self.shards):
                verb, shard_counts, _bound = self._recv(shard, sim_time=0.0)
                if verb != "counts":
                    raise SimulationError(
                        f"shard {shard}: expected counts, got {verb!r}"
                    )
                for fid, n in shard_counts:
                    counts[fid] = n
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
        self._bases = compute_global_bases(self.specs, counts, self.preload)
        self._prepared = True

    def run(
        self,
        on_packet: Optional[Callable[[FlowSpec, float, bool, bool], None]] = None,
        loop: Optional[EventLoop] = None,
        advance_loop: bool = False,
    ) -> ShardedRunResult:
        """Advance all shards to the horizon; dispatch merged records."""
        if not self._prepared:
            self.prepare()
        if advance_loop and loop is None:
            raise ConfigurationError("advance_loop requires a coordinator loop")
        from repro.kernels import get_backend

        backend = get_backend()
        specs = self.specs
        bases = self._bases
        result = ShardedRunResult(
            events=0,
            packets=0,
            shards=self.shards,
            per_shard_events=[0] * self.shards,
        )
        coordinator_start = loop.processed_events if loop is not None else 0
        try:
            t = 0.0
            horizon = self.horizon
            while t < horizon:
                width = (
                    self.adaptive.width()
                    if self.adaptive is not None
                    else self.window_s
                )
                target = min(t + width, horizon)
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
                streams: List[List[Tuple[float, int, int, int]]] = []
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
                    ack_t, delta, payload, count, bound, packets = rest
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
                        columns = backend.soa_unpack_f64(payload, RECORD_COLUMNS)
                        times, fids, indices, codes = columns
                        streams.append(
                            [
                                (
                                    times[k],
                                    bases[int(fids[k])] + int(indices[k]),
                                    int(fids[k]),
                                    int(codes[k]),
                                )
                                for k in range(count)
                            ]
                        )
                if self.adaptive is not None:
                    self.adaptive.observe(sum(len(s) for s in streams))
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
                    for rec_t, _gseq, fid, code in merged:
                        if advance_loop:
                            loop.run_until(rec_t)
                        on_packet(
                            specs[fid],
                            rec_t,
                            code == _RECORD_RETRANS,
                            code == _RECORD_FIN,
                        )
                t = target
            if advance_loop:
                # Drain coordinator-side deliveries up to the horizon —
                # and not one event past it, matching the single-loop
                # run's stopping point.
                loop.run_until(horizon)
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
                if obs.enabled():
                    obs.attach_metrics(
                        f"shard{shard}",
                        obs_metrics.MetricRegistry.from_dict(registry_dict),
                    )
            result.packets = packets_total
            if loop is not None:
                result.events += loop.processed_events - coordinator_start
        finally:
            self._shutdown()
        return result

def run_sharded_packet_workload(
    specs: Sequence[FlowSpec],
    *,
    seed: int,
    horizon: float,
    shards: int,
    scheduler: Optional[str] = None,
    preload: bool = False,
    with_trace: bool = True,
    on_packet: Optional[Callable[[FlowSpec, float, bool, bool], None]] = None,
    loop: Optional[EventLoop] = None,
    advance_loop: bool = False,
    window_s: Optional[float] = None,
    adaptive_window: Optional[bool] = None,
    crash_flag: Optional[str] = None,
) -> ShardedRunResult:
    """One-shot convenience: prepare + run a :class:`ShardedPacketEngine`."""
    engine = ShardedPacketEngine(
        specs,
        seed=seed,
        horizon=horizon,
        shards=shards,
        scheduler=scheduler,
        preload=preload,
        with_trace=with_trace,
        window_s=window_s,
        adaptive_window=adaptive_window,
        crash_flag=crash_flag,
    )
    engine.prepare()
    return engine.run(on_packet=on_packet, loop=loop, advance_loop=advance_loop)


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
