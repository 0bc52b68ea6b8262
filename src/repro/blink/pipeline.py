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

import heapq
import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
from repro.core.supervisor import SupervisedDriver
from repro.core.system import DataDrivenSystem, Decision, SystemState
from repro.flows.flow import FiveTuple, ip_in_prefix
from repro.netsim.packet import Packet, Protocol, TcpFlags
from repro.netsim.trace import Trace, TraceRecord
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

#: One flow's rows for :meth:`TraceReplaySession.feed_flows`: ``(rank,
#: flow, times, retransmissions, fin_time, malicious)``.
FlowRows = Tuple[int, FiveTuple, Sequence[float], Sequence[bool], Optional[float], bool]

#: A merge key ``(time, rank, index)`` before every row.
_BEFORE_ALL = (-math.inf, -math.inf, -math.inf)


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
        return self._react(now)

    def _react(self, now: float) -> List[Decision]:
        """Finish a running probe, or else run failure inference, at ``now``."""
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

    def _solve_target(
        self,
    ) -> Optional[Tuple[BlinkPrefixMonitor, Optional[SupervisedDriver]]]:
        """What :meth:`TraceReplaySession.feed_flows` can solve: the one
        monitor and its supervisor (None when bare).  None unless the
        switch has one prefix, driven by its bare monitor or by a plain,
        decision-only :class:`~repro.core.supervisor.SupervisedDriver`
        over it that is not degraded (a subclass may change what
        ``observe`` does)."""
        if len(self.monitors) != 1:
            return None
        prefix, monitor = next(iter(self.monitors.items()))
        driver = self.drivers[prefix]
        if driver is monitor:
            return monitor, None
        if (
            type(driver) is not SupervisedDriver
            or driver.driver is not monitor
            or not driver.decision_only
            or driver.supervisor.is_degraded
        ):
            return None
        return monitor, driver

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

    Replays records pushed via :meth:`feed` (or whole flows via
    :meth:`feed_flows`) with exactly the sampling cadence of
    :meth:`BlinkSwitch.replay_trace`, which runs on this class: before
    any record at or past the next sample boundary is processed, every
    monitor's reset timer is serviced and the ground-truth malicious
    occupancy is appended to the per-prefix series.  Call :meth:`finish` once the source is exhausted
    to write selector statistics to the active metric registry.
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

    def feed_flows(self, flows: Iterable[FlowRows]) -> None:
        """Process whole flows' rows in merge order, solving Blink per cell.

        Each ``(rank, flow, times, retransmissions, fin_time, malicious)``
        stands for the data rows ``(times[i], flow, retransmissions[i],
        False, malicious)`` (``times`` non-decreasing) and, unless
        ``fin_time`` is None, a FIN at ``fin_time``, no earlier than the
        last data row.  Ordered by ``(time, rank, index)``, with ranks
        unique and the FIN's index ``len(times)``, the rows of all flows
        are the stream :func:`~repro.flows.generators.merge_flow_packets`
        yields, and this call has exactly the effect of one :meth:`feed`
        per row of that stream: same samples, decisions, reroutes,
        selector statistics, ``state()`` and obs events.  The switch must
        have one prefix, bare or under a plain
        :class:`~repro.core.supervisor.SupervisedDriver` that is
        ``decision_only`` and not degraded; any other raises
        :class:`ConfigurationError`.
        Each decision then passes
        :meth:`~repro.core.supervisor.SupervisedDriver.screen` at the
        state of its row, with the same verdicts, suppressions and audit
        trail as per-row feeding, and the supervisor's last signal time
        ends at the prefix's last row.  Its model may read ``state()``
        and the selector's ``retransmission_gaps``, which only occupant
        rows move, but not ``collisions_ignored`` or :attr:`packets`:
        those are settled when the call ends.

        No merged stream is built.  Between two sample resets a flow
        touches one cell only, so each cell is solved on its own (see
        :func:`_cell_occupant_rows`): only its occupant's rows — installs,
        activity, retransmissions, FINs — reach
        :meth:`BlinkPrefixMonitor.ingest`, in merge order and interleaved
        with the samples; every other row of the prefix is an ignored
        collision and is only counted.  Inference on an ignored row can
        fire only where the reroute holddown or a probe runs out (the
        retransmitting count does not grow while no row changes a cell),
        so it runs there, on the first row at or after that instant; the
        resets are found the same way, by bisecting each flow's times.
        """
        switch = self.switch
        target = switch._solve_target()
        if target is None:
            raise ConfigurationError(
                "feed_flows needs one prefix, bare or under a decision-only supervisor"
            )
        monitor, supervised = target
        selector = monitor.selector
        prefix_for = switch.prefix_for
        inside: List[FlowRows] = []
        rows = inside_rows = 0
        first = first_inside = math.inf
        last = last_inside = -math.inf
        for entry in flows:
            _rank, flow, times, _retrans, fin, _mal = entry
            count = len(times) + (fin is not None)
            if not count:
                continue
            rows += count
            head = times[0] if times else fin
            tail = times[-1] if fin is None else fin
            if head < first:
                first = head
            if tail > last:
                last = tail
            if prefix_for(flow.dst) is not None:
                inside.append(entry)
                inside_rows += count
                if head < first_inside:
                    first_inside = head
                if tail > last_inside:
                    last_inside = tail
        if not rows:
            return
        prefix_rows = _PrefixRows(inside, last_inside)
        next_sample = self._next_sample
        if next_sample is None:
            next_sample = first
        thresholds = _reset_thresholds(
            selector, prefix_rows, next_sample, last, self.sample_interval
        )
        occupants, cells = _occupant_rows(selector, inside, thresholds)
        occupants.sort()
        obs_metrics.inc("blink.solve.cells", cells)
        obs_metrics.inc("blink.solve.full_chain_rows", len(occupants))

        ingest = monitor.ingest
        release = switch._release

        def release_screened(decisions: List[Decision]) -> None:
            """Release what the supervisor, if any, lets through."""
            if supervised is not None:
                decisions = supervised.screen(decisions)
            if decisions:
                release(decisions)

        def next_check(
            time: float, decisions: List[Decision], key: Tuple[float, int, int]
        ) -> Optional[Tuple[float, int, int]]:
            """After the row ``key`` at ``time``: the merge key of the next
            ignored row whose inference could fire, or None."""
            rule = _check_rule(monitor, time, decisions)
            return None if rule is None else prefix_rows.first_due(*rule, key)

        def check(key: Tuple[float, int, int]) -> Optional[Tuple[float, int, int]]:
            """Run the inference of the ignored row ``key``."""
            nonlocal next_sample
            time = key[0]
            if time >= next_sample:
                next_sample = self._sample_until(time, next_sample)
            monitor._now = time  # what ingest() sets; state() reads it
            decisions = monitor._react(time)
            if decisions:
                release_screened(decisions)
            return next_check(time, decisions, key)

        # Merge key of the next ignored row that must run inference, or
        # None while no ignored row can fire; a replay under way may owe
        # one to this call's rows.
        pending = next_check(-math.inf, [], _BEFORE_ALL)
        for time, rank, index, retrans, fin, flow, mal in occupants:
            key = (time, rank, index)
            while pending is not None and pending < key:
                pending = check(pending)
            if time >= next_sample:
                next_sample = self._sample_until(time, next_sample)
            decisions = ingest(flow, time, retrans, fin, None, mal)
            if decisions:
                release_screened(decisions)
            pending = next_check(time, decisions, key)
        while pending is not None:
            pending = check(pending)
        if last >= next_sample:
            next_sample = self._sample_until(last, next_sample)
        self._next_sample = next_sample
        self.packets += rows
        selector.stats.collisions_ignored += inside_rows - len(occupants)
        if inside:
            monitor._now = last_inside
            if supervised is not None:
                supervised._last_signal_time = last_inside

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


class _PrefixRows:
    """The rows of a prefix's flows, searched for the first row due at an
    instant: a reset, a holddown's or a probe's end.

    Such instants are few — one per reset, reroute or probe — so each is
    found by bisecting the times of the flows that could hold it, and
    kept.  Those are the flows still sending at the instant and the first
    ones to start after it, so the flows are indexed, on the first
    search, by first and last row time.
    """

    def __init__(self, flows: Sequence[FlowRows], last: float):
        self.flows = flows
        self.last = last
        self._index: Optional[Tuple[List[FlowRows], array, array]] = None
        self._due: Dict[Tuple[float, float], Optional[Tuple[float, int, int]]] = {}

    def first_due(
        self, base: float, span: float, after: Tuple[float, ...]
    ) -> Optional[Tuple[float, int, int]]:
        """The merge key of the first row after the key ``after`` whose
        time ``t`` has ``t - base >= span`` — the monitor's own float
        comparison — or None."""
        if not self.last - base >= span:
            return None
        if not after[0] - base >= span:
            # Every due row is later than ``after``: one answer per rule.
            rule = (base, span)
            if rule not in self._due:
                self._due[rule] = self._search(base, span, _BEFORE_ALL)
            return self._due[rule]
        return self._search(base, span, after)

    def _search(
        self, base: float, span: float, after: Tuple[float, ...]
    ) -> Optional[Tuple[float, int, int]]:
        if self._index is None:
            order = sorted(self.flows, key=_flow_start)
            firsts = array("d", (_flow_start(flow)[0] for flow in order))
            lasts = array("d", (
                times[-1] if fin is None else fin for _r, _f, times, _x, fin, _m in order
            ))
            self._index = order, firsts, lasts
        order, firsts, lasts = self._index
        # Below any rounding of ``t - base``: a row earlier than this is
        # never due.
        bound = base + span - 1e-9 * (abs(base) + abs(span) + 1.0)
        split = bisect_left(firsts, bound)
        best = None
        # Flows started before the bound: only those still sending.
        for flow in compress(order, map(bound.__le__, islice(lasts, split))):
            key = _first_due_row(flow, base, span, after)
            if key is not None and (best is None or key < best):
                best = key
        # Later flows in start order, up to the first starting past the best.
        for index in range(split, len(order)):
            flow = order[index]
            if best is not None and (firsts[index], flow[0]) > best[:2]:
                break
            key = _first_due_row(flow, base, span, after)
            if key is not None and (best is None or key < best):
                best = key
        return best


def _flow_start(flow: FlowRows) -> Tuple[float, int]:
    """A flow's first row time and rank: its first merge key, less the index."""
    rank, _flow, times, _retrans, fin, _mal = flow
    return (times[0] if times else fin), rank


def _first_due_row(
    flow: FlowRows, base: float, span: float, after: Tuple[float, ...]
) -> Optional[Tuple[float, int, int]]:
    """The merge key of the flow's first row after ``after`` with ``t - base
    >= span``, or None."""
    rank, _flow, times, _retrans, fin, _mal = flow
    n = len(times)
    index = bisect_left(times, base + span)
    while index > 0 and times[index - 1] - base >= span:
        index -= 1
    while index < n and times[index] - base < span:
        index += 1
    if after is not _BEFORE_ALL:
        index = max(index, _after(times, rank, 0, n, after))
    if index < n:
        return times[index], rank, index
    if fin is not None and fin - base >= span and (fin, rank, n) > after:
        return fin, rank, n
    return None


def _reset_thresholds(
    selector: FlowSelector,
    rows: _PrefixRows,
    next_sample: float,
    last: float,
    sample_interval: float,
) -> List[tuple]:
    """Merge keys at which the per-row replay resets the sample, in order.

    A reset runs at the first sample boundary (taken before the first row
    at or after it, up to the ``last`` row) or the first of the prefix's
    ``rows`` (in :meth:`FlowSelector.observe`) whose time is at least the
    reset interval past the last reset, whichever comes first — a
    boundary on a tie.  Rows at or after a returned key belong to the
    sample after that reset.
    """
    last_reset = selector._last_reset
    interval = selector.reset_interval
    thresholds: List[tuple] = []
    boundary = next_sample
    after: Tuple[float, ...] = _BEFORE_ALL
    while True:
        while boundary <= last and boundary - last_reset < interval:
            boundary += sample_interval
        row = rows.first_due(last_reset, interval, after)
        if boundary <= last and (row is None or boundary <= row[0]):
            now = boundary
            after = (now, -math.inf, -math.inf)
            boundary += sample_interval
        elif row is not None:
            now = row[0]
            after = row
        else:
            return thresholds
        thresholds.append(after)
        last_reset += interval * int((now - last_reset) / interval)


def _check_rule(
    monitor: BlinkPrefixMonitor, now: float, decisions: List[Decision]
) -> Optional[Tuple[float, float]]:
    """After a row of the prefix at ``now``: ``(base, span)`` such that
    the first later row with ``t - base >= span`` is the next ignored row
    whose inference could fire, or None when no ignored row can.

    A probe finishes on the first row past its duration.  A reroute, or
    a holddown that declined this row, holds inference until the first
    row past the holddown.  Otherwise inference declined on the
    retransmitting count, which no ignored row can raise.
    """
    if monitor._probe_start is not None:
        return monitor._probe_start, monitor.probe_duration
    if decisions or now - monitor._last_reroute_time < monitor.reroute_holddown:
        return monitor._last_reroute_time, monitor.reroute_holddown
    return None


def _occupant_rows(
    selector: FlowSelector, flows: Sequence[FlowRows], thresholds: List[tuple]
) -> Tuple[List[tuple], int]:
    """Every occupant row of ``flows`` under ``selector``, and the number
    of cells solved.

    Rows are ``(time, rank, index, retransmission, fin, flow, malicious)``
    in no particular order.  Each sample between resets (split at
    ``thresholds``) hashes with its own seed and starts from empty cells
    — the first from the selector's current cells.  A cell's buckets are
    dropped once it is solved.
    """
    cells = len(selector.cells)
    epochs = len(thresholds) + 1
    seeds = [
        selector.hash_seed + (epoch if selector.reseed_on_reset else 0)
        for epoch in range(epochs)
    ]
    buckets: List[List[List[FlowRows]]] = [[[] for _ in range(cells)] for _ in seeds]
    for entry in flows:
        if thresholds:
            first = _epoch_of(entry, thresholds, 0)
            last = _epoch_of(entry, thresholds, -1)
        else:
            first = last = 0
        for epoch in range(first, last + 1):
            if first == last or _epoch_span(entry, thresholds, epoch) is not None:
                buckets[epoch][entry[1].cell_index(cells, seeds[epoch])].append(entry)
    out: List[tuple] = []
    solved = 0
    timeout = selector.eviction_timeout
    for epoch, bucket in enumerate(buckets):
        for index, entries in enumerate(bucket):
            if not entries:
                continue
            if epoch == 0:
                cell = selector.cells[index]
                occupant, last_activity = cell.flow, cell.last_activity
            else:
                occupant, last_activity = None, 0.0
            _cell_occupant_rows(
                _cell_entries(entries, thresholds, epoch),
                occupant, last_activity, timeout, out,
            )
            bucket[index] = []
            solved += 1
    return out, solved


def _epoch_of(entry: FlowRows, thresholds: List[tuple], which: int) -> int:
    """The sample of the flow's first (``which=0``) or last (``-1``) row."""
    rank, _flow, times, _retrans, fin, _mal = entry
    n = len(times)
    if which == 0:
        key = (times[0], rank, 0) if n else (fin, rank, 0)
    else:
        key = (fin, rank, n) if fin is not None else (times[-1], rank, n - 1)
    return bisect_right(thresholds, key)


def _epoch_span(
    entry: FlowRows, thresholds: List[tuple], epoch: int
) -> Optional[Tuple[int, int, Optional[float]]]:
    """``(low, high, fin)``: the flow's data rows ``low:high`` in sample
    ``epoch`` and its FIN time if the FIN falls in it; None for neither."""
    rank, _flow, times, _retrans, fin, _mal = entry
    n = len(times)
    if not thresholds:
        return 0, n, fin
    low = _cut(times, rank, thresholds[epoch - 1]) if epoch else 0
    high = _cut(times, rank, thresholds[epoch]) if epoch < len(thresholds) else n
    if fin is not None and bisect_right(thresholds, (fin, rank, n)) != epoch:
        fin = None
    return (low, high, fin) if low < high or fin is not None else None


def _cut(times: Sequence[float], rank: int, threshold: tuple) -> int:
    """How many of a flow's data rows come before the merge key ``threshold``."""
    time, threshold_rank, threshold_index = threshold
    if rank < threshold_rank:
        return bisect_right(times, time)
    if rank > threshold_rank:
        return bisect_left(times, time)
    return threshold_index  # the row that triggered the reset is this flow's


# Fields of a cell entry: one flow's rows in one sample.
_FIRST, _RANK, _LOW, _HIGH, _FIN, _LAST, _TIMES, _RETRANS, _FLOW, _MAL, _TUPLE = range(11)


def _cell_entries(
    flows: List[FlowRows], thresholds: List[tuple], epoch: int
) -> List[tuple]:
    """One cell's flows in one sample as cell entries, in first-row order.

    An entry holds its flow's rows in the sample, its first time and last
    merge key, and a number per distinct 5-tuple of the cell.
    """
    tuples: Dict[FiveTuple, int] = {}
    entries = []
    for entry in flows:
        rank, flow, times, retrans, fin, mal = entry
        low, high, fin = _epoch_span(entry, thresholds, epoch)  # type: ignore[misc]
        first = times[low] if low < high else fin
        if fin is not None:
            last = (fin, rank, len(times))
        else:
            last = (times[high - 1], rank, high - 1)
        which = tuples.setdefault(flow, len(tuples))
        entries.append((first, rank, low, high, fin, last, times, retrans, flow, mal, which))
    entries.sort(key=itemgetter(_FIRST, _RANK))
    return entries


def _cell_occupant_rows(
    entries: List[tuple],
    occupant: Optional[FiveTuple],
    last: float,
    timeout: float,
    out: List[tuple],
) -> None:
    """Append one cell's occupant rows in one sample to ``out``.

    ``entries`` are the cell's flows (:func:`_cell_entries`),
    ``occupant``/``last`` the cell's flow and last activity when the
    sample starts.  The occupant keeps the cell through every row of its
    5-tuple (repeated 5-tuples are one flow to the selector) until its
    FIN, or until another flow of the cell sends at or after
    ``last_activity + timeout``; that row — the earliest in merge order —
    installs the next occupant.  An empty cell goes to its earliest next
    row.
    """
    groups: Dict[int, List[tuple]] = {}
    held = -1  # the occupant's 5-tuple number; -1 for an empty cell
    for entry in entries:
        groups.setdefault(entry[_TUPLE], []).append(entry)
        if occupant is not None and held < 0 and entry[_FLOW] == occupant:
            held = entry[_TUPLE]
    if occupant is not None and held < 0:
        held = len(groups)  # an occupant with no rows in this sample
    live = list(entries)
    key = _BEFORE_ALL
    own = _rows_after(groups.get(held, ()), key)
    upcoming = next(own, None)
    while True:
        if held < 0:
            row = _earliest(live, key, None, timeout, -1)
        else:
            row = upcoming
            if row is None or row[0] - last >= timeout:
                rival = _earliest(live, key, last, timeout, held)
                if rival is not None and (row is None or rival < row):
                    row = rival
        if row is None:
            return
        out.append(row[:7])
        key = row[:3]
        last = row[0]
        if row[4]:  # a FIN empties the cell
            held = -1
        elif row[7] != held:  # an install
            held = row[7]
            own = _rows_after(groups[held], key)
            upcoming = next(own, None)
        else:
            upcoming = next(own, None)


def _rows_after(group: Sequence[tuple], key: tuple) -> Iterator[tuple]:
    """The rows of one 5-tuple's entries after ``key``, in merge order."""
    if len(group) == 1:
        return _entry_rows(group[0], key)
    return heapq.merge(*(_entry_rows(entry, key) for entry in group))


def _entry_rows(entry: tuple, key: tuple) -> Iterator[tuple]:
    _first, rank, low, high, fin, _last, times, retrans, flow, mal, which = entry
    for index in range(_after(times, rank, low, high, key), high):
        yield times[index], rank, index, retrans[index], False, flow, mal, which
    if fin is not None and (fin, rank, len(times)) > key:
        yield fin, rank, len(times), False, True, flow, mal, which


def _after(times: Sequence[float], rank: int, low: int, high: int, key: tuple) -> int:
    """First index in ``low:high`` whose row comes after ``key``."""
    time, key_rank, key_index = key
    if rank < key_rank:
        return bisect_right(times, time, low, high)
    if rank > key_rank:
        return bisect_left(times, time, low, high)
    return min(max(low, key_index + 1), high)


def _earliest(
    live: List[tuple], key: tuple, last: Optional[float], timeout: float, held: int
) -> Optional[tuple]:
    """The earliest row after ``key`` of a 5-tuple other than ``held``.

    With ``last`` given, only rows at or after ``last + timeout`` count
    (the eviction test, ``t - last >= timeout``; such a row is after
    ``key``, whose time is ``last``).  ``live`` is in first-row order,
    so the scan stops at the first entry starting after the best row;
    entries with no row after ``key`` are dropped from it for good.
    """
    best = None
    best_time = best_rank = 0.0
    kept = []
    scanned = 0
    for entry in live:
        first = entry[_FIRST]
        if best is not None and (
            first > best_time or (first == best_time and entry[_RANK] > best_rank)
        ):
            break
        scanned += 1
        if entry[_LAST] <= key:
            continue
        kept.append(entry)
        if entry[_TUPLE] == held:
            continue
        times, low, high, fin = entry[_TIMES], entry[_LOW], entry[_HIGH], entry[_FIN]
        rank = entry[_RANK]
        if last is None:
            index = _after(times, rank, low, high, key)
        else:
            index = bisect_left(times, last + timeout, low, high)
            while index > low and times[index - 1] - last >= timeout:
                index -= 1
            while index < high and times[index] - last < timeout:
                index += 1
        if index < high:
            row = (times[index], rank, index, entry[_RETRANS][index], False,
                   entry[_FLOW], entry[_MAL], entry[_TUPLE])
        elif fin is not None and (
            fin - last >= timeout if last is not None else (fin, rank, len(times)) > key
        ):
            row = (fin, rank, len(times), False, True, entry[_FLOW], entry[_MAL], entry[_TUPLE])
        else:
            continue
        if best is None or row < best:
            best = row
            best_time, best_rank = row[0], rank
    live[:scanned] = kept
    return best
