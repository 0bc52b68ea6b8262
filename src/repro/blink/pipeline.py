"""The Blink pipeline: per-prefix monitoring, inference and rerouting.

Faithful reconstruction of the data-plane logic the HotNets paper
attacks: a :class:`FlowSelector` per destination prefix feeding a
majority vote — "If half of these monitored flows retransmit packets,
it infers a failure and reroutes this prefix along a different
next-hop."

Three integration surfaces:

* :class:`BlinkPrefixMonitor` — a :class:`~repro.core.DataDrivenSystem`
  consuming :class:`~repro.core.Signal` objects (used by the
  supervisor/defense machinery);
* :class:`BlinkSwitch` — multi-prefix switch that can replay a
  :class:`~repro.netsim.trace.Trace` (the Fig. 2 experiments) or sit in
  a :class:`~repro.netsim.network.Network` as a dataplane program and
  actually reroute packets (the hijack experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.blink.constants import (
    DEFAULT_CELLS,
    EVICTION_TIMEOUT,
    FAILURE_THRESHOLD_FRACTION,
    RESET_INTERVAL,
    RETRANSMISSION_WINDOW,
)
from repro.blink.selector import FlowSelector
from repro.core.entities import Signal, SignalKind
from repro.core.errors import ConfigurationError
from repro.core.metrics import TimeSeries
from repro.core.system import DataDrivenSystem, Decision, SystemState
from repro.flows.flow import FiveTuple, ip_in_prefix
from repro.netsim.packet import Packet, Protocol, TcpFlags
from repro.netsim.trace import Trace, TraceRecord
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs


@dataclass
class RerouteEvent:
    """One failure inference + reroute performed by Blink."""

    time: float
    prefix: str
    old_next_hop: Optional[str]
    new_next_hop: Optional[str]
    retransmitting_flows: int
    monitored_flows: int
    malicious_monitored_ground_truth: int
    #: Per-candidate retransmission counts when next-hop probing ran.
    probe_counts: Optional[Dict[str, int]] = None


class BlinkPrefixMonitor(DataDrivenSystem):
    """Blink's per-prefix logic as a data-driven *driver*.

    Consumes ``tcp.packet`` signals whose value is a dict with keys
    ``flow`` (:class:`FiveTuple`), ``retransmission`` (bool), ``fin``
    (bool), ``seq`` (optional int) and ``malicious`` (ground truth);
    emits ``reroute`` decisions.  :meth:`observe` unpacks the signal
    into :meth:`ingest`, which callers holding the plain packet fields
    use directly.
    """

    name = "blink"

    def __init__(
        self,
        prefix: str,
        next_hops: Sequence[str] = (),
        cells: int = DEFAULT_CELLS,
        eviction_timeout: float = EVICTION_TIMEOUT,
        reset_interval: float = RESET_INTERVAL,
        failure_threshold_fraction: float = FAILURE_THRESHOLD_FRACTION,
        retransmission_window: float = RETRANSMISSION_WINDOW,
        reroute_holddown: float = 10.0,
        hash_seed: int = 0,
        probe_backups: bool = False,
        probe_duration: float = 2.0,
    ):
        if not 0.0 < failure_threshold_fraction <= 1.0:
            raise ConfigurationError("failure threshold fraction must be in (0, 1]")
        if probe_duration <= 0:
            raise ConfigurationError("probe_duration must be positive")
        self.prefix = prefix
        self.next_hops: List[str] = list(next_hops)
        self.active_next_hop: Optional[str] = self.next_hops[0] if self.next_hops else None
        self.selector = FlowSelector(
            cells=cells,
            eviction_timeout=eviction_timeout,
            reset_interval=reset_interval,
            hash_seed=hash_seed,
        )
        self.failure_threshold = max(1, int(cells * failure_threshold_fraction))
        self.retransmission_window = retransmission_window
        self.reroute_holddown = reroute_holddown
        # Next-hop probing (Blink NSDI'19, §4.4): instead of blindly
        # committing to one backup, spread the monitored flows over the
        # backup candidates for probe_duration and pick the one whose
        # flows stop retransmitting.
        self.probe_backups = probe_backups
        self.probe_duration = probe_duration
        self._probe_start: Optional[float] = None
        self._probe_candidates: List[str] = []
        self.reroutes: List[RerouteEvent] = []
        self._last_reroute_time = -float("inf")
        self._now = 0.0

    # -- DataDrivenSystem interface ------------------------------------------

    def observe(self, signal: Signal) -> List[Decision]:
        if signal.name != "tcp.packet":
            return []
        info = signal.value
        if not isinstance(info, dict) or "flow" not in info:
            raise ConfigurationError("tcp.packet signal needs a dict with a 'flow'")
        return self.ingest(
            info["flow"],
            signal.time,
            bool(info.get("retransmission", False)),
            bool(info.get("fin", False)),
            info.get("seq"),
            bool(info.get("malicious", False)),
        )

    def ingest(
        self,
        flow: FiveTuple,
        now: float,
        retrans: bool = False,
        fin: bool = False,
        seq: Optional[int] = None,
        malicious: bool = False,
    ) -> List[Decision]:
        """Process one TCP packet of this prefix from its plain fields."""
        self._now = now
        self.selector.observe(flow, now, retrans, fin, seq, malicious)
        if self._probe_start is not None:
            return self._maybe_finish_probe(now)
        return self._maybe_infer_failure(now)

    def state(self) -> SystemState:
        return SystemState(
            time=self._now,
            variables={
                "prefix": self.prefix,
                "monitored": self.selector.occupied_count(self._now),
                "retransmitting": self.selector.retransmitting_count(
                    self._now, self.retransmission_window
                ),
                "threshold": self.failure_threshold,
                "active_next_hop": self.active_next_hop,
                "reroutes": len(self.reroutes),
            },
        )

    def reset(self) -> None:
        self.selector = FlowSelector(
            cells=len(self.selector.cells),
            eviction_timeout=self.selector.eviction_timeout,
            reset_interval=self.selector.reset_interval,
            hash_seed=self.selector.hash_seed,
        )
        self.reroutes.clear()
        self._last_reroute_time = -float("inf")
        self.active_next_hop = self.next_hops[0] if self.next_hops else None

    # -- inference --------------------------------------------------------------

    # -- next-hop probing ----------------------------------------------------

    @property
    def probing(self) -> bool:
        return self._probe_start is not None

    def probe_next_hop_for(self, flow) -> Optional[str]:
        """During a probe, which candidate this flow's cell tests."""
        if not self.probing or not self._probe_candidates:
            return None
        index = flow.cell_index(len(self.selector.cells), self.selector.hash_seed)
        return self._probe_candidates[index % len(self._probe_candidates)]

    def _begin_probe(self, now: float) -> None:
        self._probe_start = now
        self._probe_candidates = [
            hop for hop in self.next_hops if hop != self.active_next_hop
        ] or list(self.next_hops)
        if obs.enabled():
            obs.emit(
                "blink.probe_start",
                t_sim=now,
                prefix=self.prefix,
                candidates=list(self._probe_candidates),
            )

    def _maybe_finish_probe(self, now: float) -> List[Decision]:
        assert self._probe_start is not None
        if now - self._probe_start < self.probe_duration:
            return []
        # Score each candidate by the monitored flows assigned to it
        # that retransmitted during the probe window; fewest wins, ties
        # break in next-hop order (deterministic — and therefore known
        # to a Kerckhoff attacker).
        counts = {candidate: 0 for candidate in self._probe_candidates}
        for index, cell in enumerate(self.selector.cells):
            if not cell.occupied or cell.last_retransmission is None:
                continue
            # Only retransmissions strictly after the probe began count;
            # the ones at probe start are what *triggered* the probe.
            if cell.last_retransmission <= self._probe_start:
                continue
            candidate = self._probe_candidates[index % len(self._probe_candidates)]
            counts[candidate] += 1
        winner = min(self._probe_candidates, key=lambda c: counts[c])
        probe_start = self._probe_start
        self._probe_start = None
        self._probe_candidates = []
        return self._commit_reroute(now, winner, note_counts=counts)

    def _maybe_infer_failure(self, now: float) -> List[Decision]:
        if now - self._last_reroute_time < self.reroute_holddown:
            return []
        # The O(1) bound rules out most packets before the exact scan.
        window = self.retransmission_window
        if self.selector.retransmitting_bound(now, window) < self.failure_threshold:
            return []
        if self.selector.retransmitting_count(now, window) < self.failure_threshold:
            return []
        if self.probe_backups and len(self.next_hops) > 2:
            # Multiple backups: probe before committing.
            self._begin_probe(now)
            return []
        old = self.active_next_hop
        new = self._choose_backup()
        return self._commit_reroute(now, new)

    def _commit_reroute(
        self, now: float, new: Optional[str], note_counts: Optional[Dict[str, int]] = None
    ) -> List[Decision]:
        retransmitting = self.selector.retransmitting_count(now, self.retransmission_window)
        event = RerouteEvent(
            time=now,
            prefix=self.prefix,
            old_next_hop=self.active_next_hop,
            new_next_hop=new,
            retransmitting_flows=retransmitting,
            monitored_flows=self.selector.occupied_count(now),
            malicious_monitored_ground_truth=self.selector.malicious_count(now),
            probe_counts=dict(note_counts) if note_counts else None,
        )
        self.reroutes.append(event)
        self._last_reroute_time = now
        self.active_next_hop = new
        if obs.enabled():
            obs.emit(
                "blink.reroute",
                t_sim=now,
                prefix=self.prefix,
                old_next_hop=event.old_next_hop,
                new_next_hop=new,
                retransmitting=retransmitting,
                monitored=event.monitored_flows,
                malicious_ground_truth=event.malicious_monitored_ground_truth,
                probed=note_counts is not None,
            )
        return [
            Decision(
                action="reroute",
                subject=self.prefix,
                value=new,
                time=now,
                confidence=retransmitting / max(1, self.selector.occupied_count(now)),
            )
        ]

    def _choose_backup(self) -> Optional[str]:
        if not self.next_hops:
            return None
        if self.active_next_hop not in self.next_hops:
            return self.next_hops[0]
        index = self.next_hops.index(self.active_next_hop)
        return self.next_hops[(index + 1) % len(self.next_hops)]


class BlinkSwitch:
    """Multi-prefix Blink switch with trace replay and network modes.

    Counts ``blink.decisions_released`` (both modes) and
    ``blink.packets_seen`` (network mode) on the active
    :mod:`repro.obs.metrics` registry, and a finished replay writes each
    prefix's selector statistics there as ``blink.<prefix>.*`` gauges
    (the prefix folded by :func:`repro.obs.metrics.label`).
    """

    def __init__(
        self,
        prefixes: Dict[str, Sequence[str]],
        supervise: Optional[Callable[[BlinkPrefixMonitor], DataDrivenSystem]] = None,
        **monitor_kwargs: object,
    ):
        if not prefixes:
            raise ConfigurationError("BlinkSwitch needs at least one prefix")
        self.monitors: Dict[str, BlinkPrefixMonitor] = {
            prefix: BlinkPrefixMonitor(prefix, next_hops, **monitor_kwargs)  # type: ignore[arg-type]
            for prefix, next_hops in prefixes.items()
        }
        # Optional Section 5 wrapper: ``supervise`` turns each per-prefix
        # monitor into a supervised driver (e.g. defenses.supervised_blink);
        # signals then pass through the supervisor on their way in, so
        # vetoed reroutes never reach :attr:`decisions`.
        self.drivers: Dict[str, DataDrivenSystem] = {
            prefix: supervise(monitor) if supervise is not None else monitor
            for prefix, monitor in self.monitors.items()
        }
        # Unsupervised prefixes take packets through the monitor's
        # ingest() directly; a Signal is built only for a wrapper.
        self._ingest: Dict[str, Callable[..., List[Decision]]] = {
            prefix: monitor.ingest
            for prefix, monitor in self.monitors.items()
            if self.drivers[prefix] is monitor
        }
        self.decisions: List[Decision] = []
        # destination -> matched prefix memo; exact because the prefix
        # set is fixed at construction and matching is pure.  Without it
        # every packet re-parses ip_network() strings.
        self._prefix_cache: Dict[str, Optional[str]] = {}

    def prefix_for(self, destination: str) -> Optional[str]:
        cache = self._prefix_cache
        try:
            return cache[destination]
        except KeyError:
            pass
        matched: Optional[str] = None
        for prefix in self.monitors:
            if destination == prefix or ip_in_prefix(destination, prefix):
                matched = prefix
                break
        if len(cache) >= 65536:
            cache.clear()
        cache[destination] = matched
        return matched

    def monitor_for(self, destination: str) -> Optional[BlinkPrefixMonitor]:
        prefix = self.prefix_for(destination)
        return self.monitors[prefix] if prefix is not None else None

    # -- trace replay (Fig. 2 experiments) ------------------------------------

    def replay_record(self, record: TraceRecord) -> List[Decision]:
        flow = record.flow
        prefix = self.prefix_for(flow.dst)
        if prefix is None:
            return []
        decisions = self._deliver(
            prefix,
            flow,
            record.time,
            record.is_retransmission,
            record.is_fin_or_rst,
            None,
            record.malicious_ground_truth,
        )
        if decisions:
            self._release(decisions)
        return decisions

    def _release(self, decisions: List[Decision]) -> None:
        """Record released decisions; the one place either mode does."""
        obs_metrics.inc("blink.decisions_released", len(decisions))
        self.decisions.extend(decisions)

    def _deliver(
        self,
        prefix: str,
        flow: FiveTuple,
        now: float,
        retrans: bool,
        fin: bool,
        seq: Optional[int],
        malicious: bool,
    ) -> List[Decision]:
        """Hand one packet to ``prefix``'s driver."""
        ingest = self._ingest.get(prefix)
        if ingest is not None:
            return ingest(flow, now, retrans, fin, seq, malicious)
        value: Dict[str, object] = {"flow": flow, "retransmission": retrans}
        if seq is not None:
            value["seq"] = seq
        value["fin"] = fin
        value["malicious"] = malicious
        signal = Signal(
            kind=SignalKind.HEADER_FIELD,
            name="tcp.packet",
            value=value,
            time=now,
            source=flow,
        )
        return self.drivers[prefix].observe(signal)

    def replay_session(self, sample_interval: float = 1.0) -> "TraceReplaySession":
        """Open a push-mode replay: feed records one at a time.

        The streaming counterpart of :meth:`replay_trace` — same
        sampling cadence and decision flow, but records arrive from a
        live source (e.g. a :class:`~repro.netsim.trace.
        StreamingTraceAggregator` sink) instead of a retained trace.
        """
        return TraceReplaySession(self, sample_interval)

    def replay_trace(
        self,
        trace: Iterable[TraceRecord],
        sample_interval: float = 1.0,
    ) -> Dict[str, TimeSeries]:
        """Replay a trace; record malicious occupancy per prefix over time.

        Returns a mapping ``prefix -> TimeSeries`` of the ground-truth
        number of malicious flows monitored — the y-axis of Fig. 2.
        ``trace`` may be a :class:`~repro.netsim.trace.Trace` or any
        time-ordered iterable of records (including a generator, for
        streaming replays that never hold the full trace).
        """
        session = TraceReplaySession(self, sample_interval)
        packets = len(trace) if hasattr(trace, "__len__") else None
        with obs.span(
            "blink.replay_trace", packets=packets, prefixes=len(self.monitors)
        ):
            feed = session.feed
            for record in trace:
                feed(record)
            session.finish()
        return session.series

    def _publish_selector_metrics(self) -> None:
        """Write per-prefix selector statistics as gauges on the active
        registry (nothing when metrics are off)."""
        registry = obs_metrics.current()
        if registry is None:
            return
        for prefix, monitor in self.monitors.items():
            label = obs_metrics.label(prefix)
            stats = monitor.selector.stats
            for name, value in (
                ("installs", stats.installs),
                ("evictions_inactive", stats.evictions_inactive),
                ("evictions_fin", stats.evictions_fin),
                ("resets", stats.resets),
                ("collisions_ignored", stats.collisions_ignored),
                ("reroutes", len(monitor.reroutes)),
            ):
                registry.gauge_set(f"blink.{label}.{name}", float(value))

    # -- dataplane program mode (hijack experiment) ----------------------------

    def process(self, packet: Packet, now: float, node: str) -> Optional[str]:
        """:class:`~repro.netsim.network.DataplaneProgram` interface."""
        if packet.protocol != Protocol.TCP or packet.tcp is None:
            return None
        prefix = self.prefix_for(packet.dst)
        if prefix is None:
            return None
        monitor = self.monitors[prefix]
        fin = bool(packet.tcp.flags & (TcpFlags.FIN | TcpFlags.RST))
        # Network mode infers retransmissions from duplicate sequence
        # numbers, like the real P4 pipeline.
        decisions = self._deliver(
            prefix,
            packet.five_tuple,
            now,
            False,
            fin,
            packet.tcp.seq,
            packet.malicious_ground_truth,
        )
        if decisions:
            self._release(decisions)
        obs_metrics.inc("blink.packets_seen")
        if monitor.probing:
            probe_hop = monitor.probe_next_hop_for(packet.five_tuple)
            if probe_hop is not None:
                return probe_hop
        return monitor.active_next_hop

    @property
    def reroutes(self) -> List[RerouteEvent]:
        events: List[RerouteEvent] = []
        for monitor in self.monitors.values():
            events.extend(monitor.reroutes)
        events.sort(key=lambda e: e.time)
        return events


class TraceReplaySession:
    """Incremental trace replay against a :class:`BlinkSwitch`.

    Replays records pushed via :meth:`feed` (or whole column chunks via
    :meth:`feed_batch`) with exactly the sampling cadence of
    :meth:`BlinkSwitch.replay_trace`, which runs on this class: before
    any record at or past the next sample boundary is processed, every
    monitor's reset timer is serviced and the ground-truth malicious
    occupancy is appended to the per-prefix series.  Call :meth:`finish` once the source is exhausted to write
    selector statistics to the active metric registry.
    """

    def __init__(self, switch: BlinkSwitch, sample_interval: float = 1.0):
        if sample_interval <= 0:
            raise ConfigurationError("sample_interval must be positive")
        self.switch = switch
        self.sample_interval = sample_interval
        self.series: Dict[str, TimeSeries] = {
            prefix: TimeSeries(f"blink.{prefix}.malicious_monitored")
            for prefix in switch.monitors
        }
        self.packets = 0
        self._next_sample: Optional[float] = None

    def feed(self, record: TraceRecord) -> None:
        """Process one record (records must arrive in time order)."""
        time = record.time
        next_sample = self._next_sample
        if next_sample is None:
            next_sample = time
        if time >= next_sample:
            next_sample = self._sample_until(time, next_sample)
        self._next_sample = next_sample
        self.packets += 1
        self.switch.replay_record(record)

    def feed_batch(
        self,
        times: Sequence[float],
        flows: Sequence[FiveTuple],
        retransmissions: Sequence[bool],
        fins: Sequence[bool],
        malicious: Sequence[bool],
    ) -> None:
        """Process a chunk of records given as parallel columns.

        Row ``i`` is the record ``(times[i], flows[i], retransmissions[i],
        fins[i], malicious[i])``, and the chunk has exactly the effect of
        one :meth:`feed` per row — same samples, decisions, reroutes,
        selector statistics and ``state()`` — but no :class:`TraceRecord`
        is built: each row goes straight to :meth:`BlinkSwitch._deliver`.

        Rows a bare (unsupervised) monitor's selector would ignore skip
        that chain: the reset is not due and the flow's cell (its index
        memoised as :meth:`FlowSelector.observe` does) is held by
        another flow still inside the eviction timeout.  Such a row only
        bumps ``collisions_ignored`` and the monitor's clock, and runs
        inference only when it could fire.  Between rows that change the
        cells, the retransmitting count can only fall as time grows, so
        once inference has declined it stays declined until the next
        such row or sample; the other ways out are the reroute holddown
        expiring and a probe's duration elapsing.
        """
        if not times:
            return
        switch = self.switch
        prefix_for = switch.prefix_for
        matched = switch._prefix_cache.get
        deliver = switch._deliver
        release = switch._release
        next_sample = self._next_sample
        if next_sample is None:
            next_sample = times[0]
        # The bare monitor whose state the locals below hold, or None.
        # Any row that takes the full chain, and any sample, drops it.
        lane = None
        for time, flow, retrans, fin, mal in zip(
            times, flows, retransmissions, fins, malicious
        ):
            if time >= next_sample:
                next_sample = self._sample_until(time, next_sample)
                lane = None
            prefix = matched(flow.dst) or prefix_for(flow.dst)
            if prefix is None:
                continue
            if prefix != lane:
                state = self._lane_state(prefix)
                if state is not None:
                    (
                        monitor, stats, cells, cached_index, index_miss,
                        timeout, reset_interval, last_reset, holddown,
                        last_reroute, probe_duration, probe_start,
                    ) = state
                    lane = prefix
                    # Inference declined at this time and nothing has
                    # changed the cells since (inf: not known to decline).
                    quiet_from = math.inf
            if prefix == lane and time - last_reset < reset_interval:
                index = cached_index(flow)
                if index is None:
                    index = index_miss(flow)
                cell = cells[index]
                occupant = cell.flow
                # Unequal cached hashes settle ``occupant != flow``
                # without FiveTuple.__eq__; equal ones take the chain.
                if (
                    occupant is not None
                    and occupant._hash != flow._hash
                    and time - cell.last_activity < timeout
                ):
                    stats.collisions_ignored += 1
                    monitor._now = time
                    if probe_start is not None:
                        if time - probe_start < probe_duration:
                            continue
                        decisions = monitor._maybe_finish_probe(time)
                    elif time - last_reroute < holddown or time >= quiet_from:
                        continue
                    else:
                        decisions = monitor._maybe_infer_failure(time)
                        if not decisions and monitor._probe_start is None:
                            quiet_from = time
                            continue
                    probe_start = monitor._probe_start
                    last_reroute = monitor._last_reroute_time
                    if decisions:
                        release(decisions)
                    continue
            decisions = deliver(prefix, flow, time, retrans, fin, None, mal)
            lane = None
            if decisions:
                release(decisions)
        self._next_sample = next_sample
        self.packets += len(times)

    def _lane_state(self, prefix: str) -> Optional[tuple]:
        """The state :meth:`feed_batch`'s ignored-row check reads, or None.

        None when ``prefix``'s driver is supervised (its signals must
        reach the wrapper) or the selector's index cache is stale (the
        next :meth:`FlowSelector.observe` rebuilds it).
        """
        if prefix not in self.switch._ingest:
            return None
        monitor = self.switch.monitors[prefix]
        selector = monitor.selector
        if selector._index_cache_seed != selector.hash_seed:
            return None
        return (
            monitor,
            selector.stats,
            selector.cells,
            selector._index_cache.get,
            selector._index_miss,
            selector.eviction_timeout,
            selector.reset_interval,
            selector._last_reset,
            monitor.reroute_holddown,
            monitor._last_reroute_time,
            monitor.probe_duration,
            monitor._probe_start,
        )

    def _sample_until(self, time: float, next_sample: float) -> float:
        """Take every sample due at or before ``time``; returns the next boundary.

        Each sample services every monitor's reset timer, then records
        its ground-truth malicious occupancy.
        """
        monitors = self.switch.monitors
        series = self.series
        while time >= next_sample:
            for prefix, monitor in monitors.items():
                monitor.selector.maybe_reset(next_sample)
                series[prefix].record(
                    next_sample, monitor.selector.malicious_count(next_sample)
                )
            next_sample += self.sample_interval
        return next_sample

    def finish(self) -> Dict[str, TimeSeries]:
        """Seal the session; returns the per-prefix series."""
        self.switch._publish_selector_metrics()
        return self.series
