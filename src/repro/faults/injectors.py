"""Fault injectors: wiring a :class:`FaultPlan` into the primitives.

Three planes of degradation, mirroring the tentpole:

* **data plane** — :class:`FaultyLinkTap` (loss/corruption/reorder
  bursts through the existing :class:`~repro.netsim.link.LinkTap`
  interception point) plus :func:`schedule_link_faults`, which turns
  ``link-down``/``link-flap`` clauses into ``set_down``/``set_up``
  events on the event loop;
* **control plane** — :class:`ClockFaultInjector`, an
  :class:`~repro.netsim.events.TimerFault` that skews or silently
  drops timer events as they are scheduled; and
* **telemetry plane** — :class:`TelemetryFault`, a generic
  dropout/garble gate over (time, value) samples with adapters for the
  three data-driven systems: the packet feed of Blink's selector
  (:meth:`TelemetryFault.degrade_record`, one record at a time on
  every driver's path into Blink), PCC
  monitor-interval loss readings (:func:`degrade_pcc`), and Pytheas
  QoE report ingestion (:meth:`TelemetryFault.report_filter`).

Every injector draws randomness from RNGs derived off the plan seed
(:meth:`FaultPlan.rng_for`), so drills are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Sequence

from repro.netsim.link import Link, LinkTap, TapVerdict
from repro.netsim.packet import Packet
from repro.netsim.trace import TraceRecord
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

from repro.faults.plan import FaultPlan, FaultSpec

#: Fault kinds handled by each injector family.
LINK_TAP_KINDS = ("loss-burst", "corrupt-burst", "reorder-burst")
LINK_STATE_KINDS = ("link-down", "link-flap")
CLOCK_KINDS = ("clock-skew", "timer-drop")
TELEMETRY_KINDS = ("telemetry-drop", "telemetry-garble")


def _matches_link(spec: FaultSpec, link: Link) -> bool:
    wanted = str(spec.param("link"))
    return not wanted or wanted == f"{link.src}-{link.dst}"


class FaultyLinkTap(LinkTap):
    """Data-plane degradation as a link tap.

    Applies the plan's ``loss-burst`` / ``corrupt-burst`` /
    ``reorder-burst`` clauses to every packet crossing the link inside
    their windows.  Chain it with an attacker tap via
    :class:`~repro.netsim.link.ChainTap` when both are present.
    """

    def __init__(self, plan: FaultPlan, link: Link):
        self.specs = [
            spec
            for spec in plan.specs_of(*LINK_TAP_KINDS)
            if _matches_link(spec, link)
        ]
        self.rng = plan.rng_for_link("link-tap", link.src, link.dst)
        self.dropped = 0
        self.corrupted = 0
        self.reordered = 0

    def inspect(self, packet: Packet, now: float) -> TapVerdict:
        current = packet
        extra_delay = 0.0
        for spec in self.specs:
            if not spec.active(now):
                continue
            if spec.kind == "loss-burst":
                if self.rng.random() < float(spec.param("p")):
                    self.dropped += 1
                    obs_metrics.inc("faults.data.dropped")
                    return TapVerdict("drop")
            elif spec.kind == "corrupt-burst":
                if self.rng.random() < float(spec.param("p")):
                    self.corrupted += 1
                    obs_metrics.inc("faults.data.corrupted")
                    current = self._corrupt(current)
            elif spec.kind == "reorder-burst":
                if self.rng.random() < float(spec.param("p")):
                    self.reordered += 1
                    obs_metrics.inc("faults.data.reordered")
                    extra_delay += float(spec.param("delay"))
        if extra_delay > 0.0:
            return TapVerdict("delay", packet=current, extra_delay=extra_delay)
        if current is not packet:
            return TapVerdict("modify", packet=current)
        return TapVerdict("pass")

    def _corrupt(self, packet: Packet) -> Packet:
        """Bit-flip the header fields the systems actually read."""
        if packet.tcp is not None:
            scrambled = replace(packet.tcp, seq=packet.tcp.seq ^ self.rng.getrandbits(16))
            return packet.copy(tcp=scrambled)
        return packet.copy(ttl=max(1, packet.ttl ^ self.rng.getrandbits(3)))


def schedule_link_faults(plan: FaultPlan, links: Sequence[Link]) -> int:
    """Install the plan's link-state clauses on ``links``.

    Schedules down/up transitions on each link's event loop and emits
    ``fault.link_down`` / ``fault.link_up`` obs events at each
    transition.  Returns the number of transitions scheduled.  Windows
    with an infinite duration down the link for the rest of the run.
    """
    transitions = 0
    for link in links:
        for spec in plan.specs_of(*LINK_STATE_KINDS):
            if not _matches_link(spec, link):
                continue
            start, end = spec.window()
            if spec.kind == "link-down":
                transitions += _schedule_transition(link, start, down=True)
                if end != float("inf"):
                    transitions += _schedule_transition(link, end, down=False)
            else:  # link-flap
                period = float(spec.param("period"))
                duty = float(spec.param("duty"))
                horizon = end if end != float("inf") else start + 100 * period
                t = start
                while t < horizon:
                    transitions += _schedule_transition(link, t, down=True)
                    transitions += _schedule_transition(
                        link, min(t + period * duty, horizon), down=False
                    )
                    t += period
    return transitions


def _schedule_transition(link: Link, when: float, down: bool) -> int:
    def fire() -> None:
        if down:
            link.set_down()
        else:
            link.set_up()
        obs.emit(
            "fault.link_down" if down else "fault.link_up",
            t_sim=link.loop.now,
            link=f"{link.src}-{link.dst}",
        )
        obs_metrics.inc("faults.data.link_transitions")

    link.loop.schedule_at(
        max(when, link.loop.now), fire, name=f"fault.{link.src}-{link.dst}"
    )
    return 1


class ClockFaultInjector:
    """Control-plane faults: clock skew and dropped timers.

    Install on an event loop via ``loop.fault = ClockFaultInjector(plan)``.
    ``clock-skew`` stretches (positive skew) or shrinks (negative) the
    *delay* of timers scheduled inside its window; ``timer-drop``
    silently discards matching timers with probability p.  Fault
    scheduling itself is exempt (names prefixed ``fault.``), so the
    injectors cannot starve their own transitions.
    """

    def __init__(self, plan: FaultPlan):
        self.specs = plan.specs_of(*CLOCK_KINDS)
        self.rng = plan.rng_for("clock")
        self.skewed = 0
        self.dropped = 0

    def adjust(self, time: float, now: float, name: str) -> Optional[float]:
        if name.startswith("fault."):
            return time
        for spec in self.specs:
            if not spec.active(now):
                continue
            if spec.kind == "timer-drop":
                match = str(spec.param("match"))
                if match and match not in name:
                    continue
                if self.rng.random() < float(spec.param("p")):
                    self.dropped += 1
                    obs_metrics.inc("faults.control.timer_dropped")
                    return None
            elif spec.kind == "clock-skew":
                skew = float(spec.param("skew"))
                self.skewed += 1
                obs_metrics.inc("faults.control.timer_skewed")
                time = now + (time - now) * (1.0 + skew)
        return time


class TelemetryFault:
    """Telemetry-plane degradation: a dropout/garble gate on samples.

    One gate instance per consumer role (the role seeds its RNG), so
    Blink's packet feed, PCC's loss readings and Pytheas's reports each
    see independent—but individually reproducible—noise streams.
    """

    def __init__(self, plan: FaultPlan, role: str = "telemetry"):
        self.specs = plan.specs_of(*TELEMETRY_KINDS)
        self.rng = plan.rng_for(role)
        self.seen = 0
        self.dropped = 0
        self.garbled = 0

    def drop(self, now: float) -> bool:
        """Should the sample observed at ``now`` be lost?"""
        self.seen += 1
        for spec in self.specs:
            if spec.kind == "telemetry-drop" and spec.active(now):
                if self.rng.random() < float(spec.param("p")):
                    self.dropped += 1
                    obs_metrics.inc("faults.telemetry.dropped")
                    return True
        return False

    def garble(self, now: float, value: float) -> float:
        """The (possibly perturbed) reading for a value sensed at ``now``."""
        for spec in self.specs:
            if spec.kind == "telemetry-garble" and spec.active(now):
                if self.rng.random() < float(spec.param("p")):
                    self.garbled += 1
                    obs_metrics.inc("faults.telemetry.garbled")
                    scale = float(spec.param("scale"))
                    value *= 1.0 + scale * (2.0 * self.rng.random() - 1.0)
        return value

    def counters(self) -> dict:
        return {
            "telemetry_seen": self.seen,
            "telemetry_dropped": self.dropped,
            "telemetry_garbled": self.garbled,
        }

    # -- adapters ----------------------------------------------------------

    def degrade_record(self, record: TraceRecord) -> Optional[TraceRecord]:
        """The Blink feed record as the selector reads it; None means it
        was lost.

        Dropout removes the record (the mirror/sampler lost it);
        garbling flips the retransmission signal the selector keys on (a
        misread sensor).  The timestamp stays intact.  The RNG is
        consumed in record order — drop check first, garble draw only
        for survivors — so every driver that feeds Blink records one at
        a time in the same order sees the same noise stream.
        """
        if self.drop(record.time):
            return None
        if self.garble(record.time, 1.0) != 1.0:
            record = replace(record, is_retransmission=not record.is_retransmission)
        return record

    def report_filter(self, inner=None):
        """Pytheas adapter: a ReportFilter dropping/garbling QoE reports.

        Composes before ``inner`` (an existing defense filter), because
        faults hit the ingestion path ahead of any server-side
        filtering.
        """

        def apply(group_id: str, reports: list) -> list:
            kept = []
            for report in reports:
                if self.drop(report.time):
                    continue
                garbled = self.garble(report.time, report.value)
                if garbled != report.value:
                    report = replace(report, value=garbled)
                kept.append(report)
            if inner is not None:
                kept = inner(group_id, kept)
            return kept

        return apply


def degrade_pcc(simulation, fault: TelemetryFault) -> None:
    """PCC adapter: degrade the loss telemetry closing each MI.

    Wraps every controller's ``complete_mi`` so that with the plan's
    dropout probability the monitor's loss reading is *lost* — the
    controller re-observes its previous MI's loss (stale hold) — and
    garbling perturbs the reading.  This models sensor-side telemetry
    failure, distinct from the MitM tamper hook which can only add real
    loss on the wire.
    """
    for controller in simulation.controllers:
        original = controller.complete_mi
        # Stale-hold state is per controller (closure cell).
        last = [0.0]

        def faulted(observed_loss: float, _orig=original, _last=last):
            now = simulation._time
            if fault.drop(now):
                observed_loss = _last[0]
            else:
                observed_loss = min(1.0, max(0.0, fault.garble(now, observed_loss)))
                _last[0] = observed_loss
            return _orig(observed_loss)

        controller.complete_mi = faulted
