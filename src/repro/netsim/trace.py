"""Trace records: a pcap-lite for simulated traffic.

A :class:`TraceRecord` is one observed packet with its observation time
and point; a :class:`Trace` is an append-only sequence with the one
query the analyses need (per-flow activity spans).
:func:`~repro.flows.generators.emit_trace` renders these from flow
schedules, and Blink's offline analysis consumes them.

For experiments too large to hold a full trace in memory,
:class:`StreamingTraceAggregator` keeps the same aggregate statistics
incrementally, retains no record, and can forward each record to a
sink (e.g. a Blink switch) as it is observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
    guarantee this).
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


class StreamingTraceAggregator:
    """Single-pass trace statistics that retain no record.

    The streaming counterpart of :class:`Trace`: every observation
    updates the totals, the per-observation-point packet counts and the
    set of distinct 5-tuples.  An optional ``sink`` callable receives
    each :class:`TraceRecord` as it is observed, which is how the
    event-loop path feeds Blink inline.

    :meth:`observe` takes one record, and like :class:`Trace` needs
    non-decreasing times.  A caller that knows each flow's rows up front
    hands them over with :meth:`observe_flow` instead, in any flow order.
    """

    __slots__ = (
        "name",
        "sink",
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
        sink: Optional[Callable[[TraceRecord], None]] = None,
    ):
        self.name = name
        self.sink = sink
        self.packets = 0
        self.bytes = 0
        self.retransmissions = 0
        self.fin_rst = 0
        self.malicious_packets = 0
        self.first_time = 0.0
        self.last_time = 0.0
        self.flows: Set[FiveTuple] = set()
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
        is only materialised for the sink.
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
        self.flows.add(flow)
        if observation_point:
            points = self.points
            points[observation_point] = points.get(observation_point, 0) + 1
        if self.sink is not None:
            self.sink(TraceRecord(
                time, flow, size, observation_point, is_retransmission,
                is_fin_or_rst, malicious,
            ))

    def observe_flow(
        self,
        flow: FiveTuple,
        times: Sequence[float],
        retransmissions: Sequence[bool],
        size: int,
        fin_time: Optional[float] = None,
        fin_size: int = 0,
        malicious: bool = False,
        observation_point: str = "",
    ) -> None:
        """Account one flow's rows at once.

        The rows are data packets of ``size`` bytes at ``times``
        (non-decreasing), flagged by ``retransmissions``, then — unless
        ``fin_time`` is None — a FIN of ``fin_size`` bytes at
        ``fin_time``, no earlier than the last data packet.  The first
        and last times are a minimum and a maximum, so calling this once
        per flow, in any order, leaves the state per-row :meth:`observe`
        over the merged rows would.  No record is built, so a sink is
        refused rather than skipped.
        """
        if self.sink is not None:
            raise ValueError("observe_flow builds no records; it needs sink=None")
        n = len(times)
        packets = n + (fin_time is not None)
        if not packets:
            return
        first = times[0] if n else fin_time
        last = times[-1] if fin_time is None else fin_time
        if not self.packets:
            self.first_time, self.last_time = first, last
        else:
            self.first_time = min(self.first_time, first)
            self.last_time = max(self.last_time, last)
        self.packets += packets
        self.bytes += n * size
        self.retransmissions += sum(map(bool, retransmissions))
        if fin_time is not None:
            self.bytes += fin_size
            self.fin_rst += 1
        if malicious:
            self.malicious_packets += packets
        self.flows.add(flow)
        if observation_point:
            points = self.points
            points[observation_point] = points.get(observation_point, 0) + packets

    # -- queries ----------------------------------------------------------

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time if self.packets else 0.0

    def flow_count(self) -> int:
        return len(self.flows)

    def malicious_fraction(self) -> float:
        return self.malicious_packets / self.packets if self.packets else 0.0

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
        }
