"""Trace records: a pcap-lite for simulated traffic.

A :class:`TraceRecord` is one observed packet with its observation time
and point; a :class:`Trace` is an append-only sequence with the handful
of query helpers the analyses need (per-flow grouping, time slicing,
inter-arrival statistics).  The CAIDA-substitute generator in
:mod:`repro.flows.caida` produces these, and Blink's offline analysis
consumes them — mirroring how the paper computed tR from CAIDA traces.

For experiments too large to hold a full trace in memory (the
packet-level Blink runs observe millions of packets),
:class:`StreamingTraceAggregator` maintains the same aggregate
statistics incrementally, retains only a bounded ring of the most
recent records, and can forward each record to a sink (e.g. a Blink
switch) as it is observed.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.flow import FiveTuple


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One packet observation."""

    time: float
    flow: FiveTuple
    size: int
    observation_point: str = ""
    is_retransmission: bool = False
    is_fin_or_rst: bool = False
    malicious_ground_truth: bool = False


class Trace:
    """Time-ordered sequence of :class:`TraceRecord`.

    Records must be appended in non-decreasing time order (generators
    guarantee this; merging multiple traces uses :meth:`merge`).
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    def append(self, record: TraceRecord) -> None:
        if self._records and record.time < self._records[-1].time:
            raise ValueError(
                f"trace {self.name!r} requires non-decreasing times: "
                f"{record.time} < {self._records[-1].time}"
            )
        self._records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.append(record)

    @classmethod
    def merge(cls, traces: Iterable["Trace"], name: str = "merged") -> "Trace":
        """Merge several traces into one time-ordered trace."""
        merged = cls(name)
        all_records: List[TraceRecord] = []
        for trace in traces:
            all_records.extend(trace._records)
        all_records.sort(key=lambda r: r.time)
        merged._records = all_records
        return merged

    # -- queries ----------------------------------------------------------

    @property
    def duration(self) -> float:
        if not self._records:
            return 0.0
        return self._records[-1].time - self._records[0].time

    @property
    def start_time(self) -> float:
        return self._records[0].time if self._records else 0.0

    @property
    def end_time(self) -> float:
        return self._records[-1].time if self._records else 0.0

    def flows(self) -> Dict[FiveTuple, List[TraceRecord]]:
        grouped: Dict[FiveTuple, List[TraceRecord]] = {}
        for record in self._records:
            grouped.setdefault(record.flow, []).append(record)
        return grouped

    def flow_count(self) -> int:
        return len({record.flow for record in self._records})

    def slice(self, start: float, end: float) -> "Trace":
        """Records with ``start <= time < end`` as a new trace."""
        times = [r.time for r in self._records]
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        sliced = Trace(f"{self.name}[{start},{end})")
        sliced._records = self._records[lo:hi]
        return sliced

    def flow_activity_spans(self) -> Dict[FiveTuple, Tuple[float, float]]:
        """First/last observation time per flow."""
        spans: Dict[FiveTuple, Tuple[float, float]] = {}
        for record in self._records:
            if record.flow in spans:
                first, _ = spans[record.flow]
                spans[record.flow] = (first, record.time)
            else:
                spans[record.flow] = (record.time, record.time)
        return spans

    def inter_arrival_gaps(self, flow: FiveTuple) -> List[float]:
        times = [r.time for r in self._records if r.flow == flow]
        return [b - a for a, b in zip(times, times[1:])]

    def malicious_fraction(self) -> float:
        """Ground-truth fraction of records that are attack traffic."""
        if not self._records:
            return 0.0
        bad = sum(1 for r in self._records if r.malicious_ground_truth)
        return bad / len(self._records)


class FlowStats:
    """Incrementally maintained per-flow counters."""

    __slots__ = (
        "packets",
        "bytes",
        "retransmissions",
        "fin_rst",
        "malicious",
        "first_time",
        "last_time",
    )

    def __init__(self, time: float) -> None:
        self.packets = 0
        self.bytes = 0
        self.retransmissions = 0
        self.fin_rst = 0
        self.malicious = 0
        self.first_time = time
        self.last_time = time


class StreamingTraceAggregator:
    """Single-pass trace statistics with bounded retention.

    The streaming counterpart of :class:`Trace`: every observation
    updates totals, per-flow :class:`FlowStats` and per-observation-point
    packet counts in O(1), and — instead of retaining every record —
    keeps at most ``ring_capacity`` recent :class:`TraceRecord` objects
    in a ring buffer (``ring_capacity=None`` disables retention
    entirely; ``0`` is the same).  An optional ``sink`` callable
    receives each :class:`TraceRecord` as it is observed, which is how
    the packet-level Blink pipeline consumes traffic inline without a
    2-million-record trace ever existing.

    A caller that knows each flow's rows up front splits that work:
    :meth:`observe_flow` accounts each flow's :class:`FlowStats` once,
    and :meth:`observe_totals` takes the totals, point counts and ring
    with only the records the ring keeps.

    Like :class:`Trace`, observation times must be non-decreasing.
    """

    __slots__ = (
        "name",
        "sink",
        "ring",
        "ring_capacity",
        "packets",
        "bytes",
        "retransmissions",
        "fin_rst",
        "malicious_packets",
        "first_time",
        "last_time",
        "flows",
        "points",
    )

    def __init__(
        self,
        name: str = "stream",
        ring_capacity: Optional[int] = 1024,
        sink: Optional[Callable[[TraceRecord], None]] = None,
    ):
        self.name = name
        self.sink = sink
        self.ring_capacity = ring_capacity or 0
        self.ring: Deque[TraceRecord] = deque(maxlen=self.ring_capacity)
        self.packets = 0
        self.bytes = 0
        self.retransmissions = 0
        self.fin_rst = 0
        self.malicious_packets = 0
        self.first_time = 0.0
        self.last_time = 0.0
        self.flows: Dict[FiveTuple, FlowStats] = {}
        self.points: Dict[str, int] = {}

    # -- ingestion --------------------------------------------------------

    def observe(
        self,
        time: float,
        flow: FiveTuple,
        size: int,
        observation_point: str = "",
        is_retransmission: bool = False,
        is_fin_or_rst: bool = False,
        malicious: bool = False,
    ) -> None:
        """Account one observation from plain fields.

        This is the allocation-light hot path: a :class:`TraceRecord`
        is only materialised when the ring or a sink needs it.
        """
        if self.packets and time < self.last_time:
            raise ValueError(
                f"stream {self.name!r} requires non-decreasing times: "
                f"{time} < {self.last_time}"
            )
        if not self.packets:
            self.first_time = time
        self.last_time = time
        self.packets += 1
        self.bytes += size
        if is_retransmission:
            self.retransmissions += 1
        if is_fin_or_rst:
            self.fin_rst += 1
        if malicious:
            self.malicious_packets += 1
        stats = self.flows.get(flow)
        if stats is None:
            stats = self.flows[flow] = FlowStats(time)
        stats.packets += 1
        stats.bytes += size
        stats.last_time = time
        if is_retransmission:
            stats.retransmissions += 1
        if is_fin_or_rst:
            stats.fin_rst += 1
        if malicious:
            stats.malicious += 1
        if observation_point:
            points = self.points
            points[observation_point] = points.get(observation_point, 0) + 1
        if self.ring_capacity or self.sink is not None:
            record = TraceRecord(
                time=time,
                flow=flow,
                size=size,
                observation_point=observation_point,
                is_retransmission=is_retransmission,
                is_fin_or_rst=is_fin_or_rst,
                malicious_ground_truth=malicious,
            )
            if self.ring_capacity:
                self.ring.append(record)
            if self.sink is not None:
                self.sink(record)

    def observe_totals(
        self,
        packets: int,
        size: int,
        retransmissions: int,
        fins: int,
        malicious: int,
        first_time: float,
        last_time: float,
        tail: Sequence[TraceRecord] = (),
        observation_point: str = "",
    ) -> None:
        """Account ``packets`` observations from their totals alone.

        The rows total ``size`` bytes, of which ``retransmissions``,
        ``fins`` and ``malicious`` are flagged; their times run from
        ``first_time`` to ``last_time``, and ``tail`` holds their last
        records in order — at least as many as the ring keeps, which are
        the only records it takes.  The call leaves the totals, point
        counts and ring one :meth:`observe` per row would, leaves
        :attr:`flows` to :meth:`observe_flow`, and, since no other
        record is ever built, refuses a sink.
        """
        if self.sink is not None:
            raise ValueError("observe_totals bypasses the sink; it needs sink=None")
        if not packets:
            return
        if len(tail) < min(packets, self.ring_capacity):
            raise ValueError(
                f"the ring keeps {self.ring_capacity} records; the tail holds {len(tail)}"
            )
        if self.packets and first_time < self.last_time:
            raise ValueError(
                f"stream {self.name!r} requires non-decreasing times: "
                f"{first_time} < {self.last_time}"
            )
        if not self.packets:
            self.first_time = first_time
        self.last_time = last_time
        self.packets += packets
        self.bytes += size
        self.retransmissions += retransmissions
        self.fin_rst += fins
        self.malicious_packets += malicious
        if observation_point:
            points = self.points
            points[observation_point] = points.get(observation_point, 0) + packets
        if self.ring_capacity:
            self.ring.extend(tail[-self.ring_capacity:])

    def observe_flow(
        self,
        flow: FiveTuple,
        times: Sequence[float],
        retransmissions: Sequence[bool],
        size: int,
        fin_time: Optional[float] = None,
        fin_size: int = 0,
        malicious: bool = False,
    ) -> None:
        """Account one flow's rows to its :class:`FlowStats` only.

        The rows are data packets of ``size`` bytes at ``times``
        (non-decreasing), flagged by ``retransmissions``, then — unless
        ``fin_time`` is None — a FIN of ``fin_size`` bytes at
        ``fin_time``, no earlier than the last data packet.  Together
        with :meth:`observe_totals` over every row, calling this per flow
        in the order of the flows' first rows leaves the state per-row
        :meth:`observe` would; a flow seen again keeps its first time
        and key position, as it would.
        """
        n = len(times)
        packets = n + (fin_time is not None)
        if not packets:
            return
        last = times[-1] if fin_time is None else fin_time
        stats = self.flows.get(flow)
        if stats is None:
            stats = self.flows[flow] = FlowStats(times[0] if n else last)
        stats.packets += packets
        stats.bytes += n * size
        stats.retransmissions += sum(map(bool, retransmissions))
        if fin_time is not None:
            stats.bytes += fin_size
            stats.fin_rst += 1
        if malicious:
            stats.malicious += packets
        if last > stats.last_time:
            stats.last_time = last

    # -- queries ----------------------------------------------------------

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time if self.packets else 0.0

    def flow_count(self) -> int:
        return len(self.flows)

    def malicious_fraction(self) -> float:
        return self.malicious_packets / self.packets if self.packets else 0.0

    def recent(self) -> List[TraceRecord]:
        """The (bounded) tail of records still held in the ring."""
        return list(self.ring)

    def ring_memory_bytes(self) -> int:
        """Approximate bytes held by the ring buffer (records + deque)."""
        total = sys.getsizeof(self.ring)
        for record in self.ring:
            total += sys.getsizeof(record)
        return total

    def summary(self) -> Dict[str, object]:
        """JSON-able aggregate summary (order-stable)."""
        return {
            "name": self.name,
            "packets": self.packets,
            "bytes": self.bytes,
            "flows": self.flow_count(),
            "retransmissions": self.retransmissions,
            "fin_rst": self.fin_rst,
            "malicious_packets": self.malicious_packets,
            "malicious_fraction": self.malicious_fraction(),
            "first_time": self.first_time,
            "last_time": self.last_time,
            "duration": self.duration,
            "observation_points": dict(sorted(self.points.items())),
            "ring": {
                "capacity": self.ring_capacity,
                "held": len(self.ring),
                "dropped": self.packets - len(self.ring) if self.ring_capacity else self.packets,
            },
        }
