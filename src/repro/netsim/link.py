"""Link transmission model: serialisation, propagation, queueing, loss.

Each :class:`Link` is a unidirectional FIFO with a finite queue, driven
by the event loop.  Packets experience serialisation delay
(``size / bandwidth``), propagation delay, optional random loss, and
tail-drop when the queue is full — the minimal model under which PCC's
loss/throughput utility and Blink's retransmission signals are
meaningful.

A link optionally carries a :class:`LinkTap`, the hook through which
MitM attackers observe/modify/drop/delay traffic (Section 2.1: "this
attacker has intercepted one or multiple links").
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.netsim.events import EventLoop
from repro.netsim.packet import Packet
from repro.obs import metrics as obs_metrics

DeliveryCallback = Callable[[Packet], None]


def derive_link_seed(seed: int, src: str, dst: str) -> int:
    """Deterministic per-link seed from a parent seed and the endpoints.

    Uses SHA-256 (stable across processes, unlike ``hash``) over a
    length-prefixed encoding, so two links with different endpoints get
    independent loss sequences while the same (seed, src, dst) always
    reproduces the same one.  The length prefixes make the encoding
    injective: the reversed pair ``(b, a)``, and splits like
    ``("a", "b->c")`` vs ``("a->b", "c")``, can never map to the same
    digest input — the 32-bit CRC this replaces offered no such
    guarantee (and collided with probability 2^-32 per pair).
    """
    payload = f"{seed}|{len(src)}:{src}|{len(dst)}:{dst}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass
class TapVerdict:
    """What a tap decided to do with one packet."""

    action: str  # "pass" | "drop" | "modify" | "delay"
    packet: Optional[Packet] = None  # replacement packet for "modify"
    extra_delay: float = 0.0  # for "delay"


class LinkTap:
    """Interception point on a link (the MitM attacker's vantage).

    Subclass and override :meth:`inspect`; the default passes
    everything through untouched.  Taps see each packet exactly once,
    before it is queued for transmission.
    """

    def inspect(self, packet: Packet, now: float) -> TapVerdict:
        return TapVerdict("pass")


class Link:
    """A unidirectional link between two nodes.

    Attributes:
        src/dst: node names (for tracing only; delivery goes to the
            callback given per-transmit).
        queue_packets: max packets buffered behind the serialiser.
        metrics: the registry the ``link.<src>-><dst>.*`` counters go
            to; by default the registry active when the link is built,
            else a private one, so :meth:`stats` always has them.
    """

    def __init__(
        self,
        loop: EventLoop,
        src: str,
        dst: str,
        bandwidth_bps: float = 1e9,
        delay_s: float = 0.001,
        loss_rate: float = 0.0,
        queue_packets: int = 1000,
        rng: Optional[random.Random] = None,
        metrics: Optional[obs_metrics.MetricRegistry] = None,
        seed: int = 0,
    ):
        if bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        if queue_packets < 1:
            raise ConfigurationError("queue must hold at least one packet")
        self.loop = loop
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.loss_rate = loss_rate
        self.queue_packets = queue_packets
        # Without an explicit rng, derive one from (seed, src, dst):
        # every directly-constructed link used to share random.Random(0)
        # and therefore replayed the *same* loss sequence on every link.
        self.rng = rng or random.Random(derive_link_seed(seed, src, dst))
        if metrics is None:
            metrics = obs_metrics.current()
        self.metrics = metrics if metrics is not None else obs_metrics.MetricRegistry()
        self._counters = self.metrics.counters
        self.up = True
        self.tap: Optional[LinkTap] = None
        self._queue: Deque[Tuple[Packet, DeliveryCallback]] = deque()
        self._busy_until = 0.0
        self._metric_prefix = f"link.{src}->{dst}"
        self._deliver_name = f"{self._metric_prefix}.deliver"
        # Hot-path counter names, built once; a counter appears in
        # stats() only once it has fired.
        self._accepted_name = f"{self._metric_prefix}.accepted"
        self._delivered_name = f"{self._metric_prefix}.delivered"

    # -- public API ----------------------------------------------------

    def transmit(self, packet: Packet, deliver: DeliveryCallback) -> bool:
        """Enqueue ``packet``; ``deliver`` fires at the far end.

        Returns False if the packet was dropped (tap, random loss or
        queue overflow) — the information a sender-side simulator needs,
        though real senders must *infer* loss like their real
        counterparts do.
        """
        now = self.loop.now
        if not self.up:
            self._count("down_dropped")
            return False
        if self.tap is not None:
            verdict = self.tap.inspect(packet, now)
            if verdict.action == "drop":
                self._count("tap_dropped")
                return False
            if verdict.packet is not None:
                packet = verdict.packet
            extra_delay = verdict.extra_delay if verdict.action == "delay" else 0.0
        else:
            extra_delay = 0.0

        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self._count("random_dropped")
            return False

        if len(self._queue) >= self.queue_packets:
            self._count("queue_dropped")
            return False

        counters = self._counters
        name = self._accepted_name
        counters[name] = counters.get(name, 0.0) + 1.0
        serialisation = packet.size * 8.0 / self.bandwidth_bps
        start = max(now, self._busy_until)
        self._busy_until = start + serialisation
        arrival = self._busy_until + self.delay_s + extra_delay
        self._queue.append((packet, deliver))
        # Transient event: no handle escapes, so the loop recycles the
        # Event object instead of allocating one per packet.
        self.loop.schedule_transient(arrival, self._deliver_front, name=self._deliver_name)
        return True

    def transmit_remote(self, packet: Packet) -> Optional[float]:
        """Like :meth:`transmit`, but return the arrival time instead of
        scheduling a local delivery event.

        The sharded engine's boundary links terminate in *another*
        process: the far end cannot run a callback here, so the arrival
        time is computed analytically at transmit time and shipped
        across the pipe as part of a compact record.  Tap, loss and
        serialisation/busy accounting are identical to :meth:`transmit`;
        the one divergence is that the egress queue is unbounded (no
        tail-drop), because queued packets never wait for a local
        delivery event to drain — an explicitly documented
        simplification of the cross-shard path.

        Returns None when the packet was dropped (link down, tap, or
        random loss).
        """
        now = self.loop.now
        if not self.up:
            self._count("down_dropped")
            return None
        if self.tap is not None:
            verdict = self.tap.inspect(packet, now)
            if verdict.action == "drop":
                self._count("tap_dropped")
                return None
            if verdict.packet is not None:
                packet = verdict.packet
            extra_delay = verdict.extra_delay if verdict.action == "delay" else 0.0
        else:
            extra_delay = 0.0

        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self._count("random_dropped")
            return None

        counters = self._counters
        name = self._accepted_name
        counters[name] = counters.get(name, 0.0) + 1.0
        serialisation = packet.size * 8.0 / self.bandwidth_bps
        start = max(now, self._busy_until)
        self._busy_until = start + serialisation
        return self._busy_until + self.delay_s + extra_delay

    def set_down(self) -> None:
        """Take the link down: every subsequent transmit is dropped.

        Already-queued packets still drain (they are "on the wire");
        this models a clean interface failure, the primitive the
        link-down/link-flap fault injectors schedule.
        """
        if self.up:
            self.up = False
            self._count("went_down")

    def set_up(self) -> None:
        """Restore a downed link."""
        if not self.up:
            self.up = True
            self._count("came_up")

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def utilization_window(self) -> float:
        """Fraction of time the serialiser is busy from now to drain."""
        now = self.loop.now
        return max(0.0, self._busy_until - now)

    def stats(self) -> dict:
        # The trailing dot keeps link a->b from claiming a->b1's counters.
        prefix = f"{self._metric_prefix}."
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    # -- internals -----------------------------------------------------

    def _deliver_front(self) -> None:
        packet, deliver = self._queue.popleft()
        counters = self._counters
        name = self._delivered_name
        counters[name] = counters.get(name, 0.0) + 1.0
        deliver(packet)

    def _count(self, what: str) -> None:
        self.metrics.inc(f"{self._metric_prefix}.{what}")


class DropTap(LinkTap):
    """Tap that drops packets matching a predicate, with a budget.

    The building block for the PCC utility-equalisation attack and the
    Pytheas CDN-throttling attack.
    """

    def __init__(
        self,
        should_drop: Callable[[Packet, float], bool],
        max_drops: Optional[int] = None,
    ):
        self.should_drop = should_drop
        self.max_drops = max_drops
        self.dropped = 0
        self.seen = 0

    def inspect(self, packet: Packet, now: float) -> TapVerdict:
        self.seen += 1
        if self.max_drops is not None and self.dropped >= self.max_drops:
            return TapVerdict("pass")
        if self.should_drop(packet, now):
            self.dropped += 1
            return TapVerdict("drop")
        return TapVerdict("pass")


class DelayTap(LinkTap):
    """Tap that adds latency to packets matching a predicate."""

    def __init__(self, should_delay: Callable[[Packet, float], bool], extra_delay: float):
        if extra_delay < 0:
            raise ConfigurationError("extra_delay must be non-negative")
        self.should_delay = should_delay
        self.extra_delay = extra_delay
        self.delayed = 0

    def inspect(self, packet: Packet, now: float) -> TapVerdict:
        if self.should_delay(packet, now):
            self.delayed += 1
            return TapVerdict("delay", extra_delay=self.extra_delay)
        return TapVerdict("pass")


class RecordTap(LinkTap):
    """Tap that records (time, packet) pairs — the "record" capability."""

    def __init__(self, max_records: int = 1_000_000):
        self.records: List[Tuple[float, Packet]] = []
        self.max_records = max_records

    def inspect(self, packet: Packet, now: float) -> TapVerdict:
        if len(self.records) < self.max_records:
            self.records.append((now, packet))
        return TapVerdict("pass")


class ChainTap(LinkTap):
    """Compose several taps; first non-pass verdict wins for drop,
    delays accumulate, modifications chain."""

    def __init__(self, taps: List[LinkTap]):
        self.taps = list(taps)

    def inspect(self, packet: Packet, now: float) -> TapVerdict:
        total_delay = 0.0
        current = packet
        for tap in self.taps:
            verdict = tap.inspect(current, now)
            if verdict.action == "drop":
                return TapVerdict("drop")
            if verdict.action == "modify" and verdict.packet is not None:
                current = verdict.packet
            elif verdict.action == "delay":
                total_delay += verdict.extra_delay
        if total_delay > 0:
            return TapVerdict("delay", packet=current, extra_delay=total_delay)
        if current is not packet:
            return TapVerdict("modify", packet=current)
        return TapVerdict("pass")
