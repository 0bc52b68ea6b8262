"""Span tracing and structured event logging.

The supervisor architecture of Section 5 presumes an observer that can
reconstruct what the driver saw and decided; this module is that
observer's substrate.  A :class:`Tracer` collects two kinds of runtime
telemetry:

* **spans** — nestable wall-clock timings opened with :meth:`Tracer.span`;
  each close appends a ``span`` event and feeds per-name aggregates, so
  hot paths can be ranked without a profiler; and
* **events** — a bounded structured log written with
  :meth:`Tracer.emit`; instrumentation points across the simulators
  (Blink evictions and reroutes, PCC rate moves, Pytheas ingestion,
  netsim loop rollups, every supervisor verdict) emit here.

Instrumented code never takes a tracer parameter.  It calls the
module-level :func:`emit`/:func:`span` helpers, which route to the
tracer installed by :func:`activate` — or do nothing when none is
installed.  The disabled path is a single module-global ``is None``
check, so always-on instrumentation costs simulators effectively
nothing (the property the fig2 bench acceptance bound guards).

:func:`activate` is also the one installer of the active
:class:`~repro.obs.metrics.MetricRegistry`: a run scopes its tracer,
its registry or both with a single ``with activate(tracer, registry)``.

This module is deliberately stdlib-only: anything in :mod:`repro` may
import it without risking an import cycle.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.obs import metrics as _metrics

DEFAULT_MAX_EVENTS = 50_000


class TraceEvent:
    """One structured log entry: a kind, a timestamp, free-form fields.

    ``time`` is seconds since the tracer was created (monotonic), so
    events from one run order and diff cleanly regardless of wall-clock
    adjustments.
    """

    __slots__ = ("kind", "time", "fields")

    def __init__(self, kind: str, time: float, fields: Dict[str, object]):
        self.kind = kind
        self.time = time
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent {self.kind} t={self.time:.6f} {self.fields!r}>"


class Tracer:
    """Collects spans and events for one run.

    Args:
        max_events: bound on the event log; once full, the *oldest*
            events are dropped and counted in :attr:`dropped` (recent
            context matters more for diagnosis than ancient history).
        clock: monotonic time source, injectable for deterministic
            tests.
    """

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.max_events = max_events
        self._clock = clock
        self._start = clock()
        self.events: Deque[TraceEvent] = deque()
        self.dropped = 0
        self._depth = 0
        #: Per-span-name aggregates: name -> [count, total_s, max_s].
        self._span_stats: Dict[str, List[float]] = {}

    # -- events ------------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Append one structured event, evicting the oldest if full."""
        if len(self.events) >= self.max_events:
            self.events.popleft()
            self.dropped += 1
        self.events.append(TraceEvent(kind, self._clock() - self._start, fields))

    def ingest(self, records: List[Dict[str, object]], **extra: object) -> None:
        """Merge a worker shard: re-emit serialised events locally.

        Parallel sweep workers trace into their own tracer and ship
        ``[{"kind", "t", "fields"}, ...]`` back to the parent; ingestion
        re-stamps each event on this tracer's clock, preserving the
        worker-relative time as ``worker_t`` and attaching ``extra``
        (e.g. the worker pid) so one ledger covers the whole sweep.
        """
        for record in records:
            fields = dict(record.get("fields") or {})
            fields.pop("worker_t", None)
            for key in extra:
                fields.pop(key, None)
            self.emit(
                str(record.get("kind", "?")),
                worker_t=record.get("t"),
                **extra,
                **fields,
            )

    def events_of(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """Time a code region; nests, records a ``span`` event on exit."""
        depth = self._depth
        self._depth += 1
        started = self._clock()
        error = False
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            self._depth -= 1
            duration = self._clock() - started
            stats = self._span_stats.get(name)
            if stats is None:
                self._span_stats[name] = [1, duration, duration]
            else:
                stats[0] += 1
                stats[1] += duration
                stats[2] = max(stats[2], duration)
            self.emit(
                "span", name=name, duration_s=duration, depth=depth, error=error, **attrs
            )

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates: count, total and max duration."""
        return {
            name: {"count": int(stats[0]), "total_s": stats[1], "max_s": stats[2]}
            for name, stats in self._span_stats.items()
        }

    # -- rollups -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Compact roll-up for benches' ``extra_info`` and ledgers."""
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "kinds": self.kind_counts(),
            "spans": {
                name: round(stats["total_s"], 6)
                for name, stats in self.span_totals().items()
            },
        }


# -- module-level routing ----------------------------------------------------
#
# The active tracer is intentionally a plain module global, not a
# threading/contextvar construct: every simulator in this library is
# single-threaded and the disabled fast path must stay one ``is None``
# check.

_ACTIVE: Optional[Tracer] = None


class _NullSpan:
    """Reusable no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def current() -> Optional[Tracer]:
    """The active tracer, or None when tracing is off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def emit(kind: str, **fields: object) -> None:
    """Emit to the active tracer; no-op (and allocation-light) when off.

    Hot loops that want to skip even keyword packing can guard with
    ``if tracer.enabled():`` first.
    """
    tracer = _ACTIVE
    if tracer is not None:
        tracer.emit(kind, **fields)


def span(name: str, **attrs: object):
    """Span on the active tracer; a shared no-op context manager when off."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


@contextmanager
def activate(
    tracer: Optional[Tracer] = None,
    metrics: Optional[_metrics.MetricRegistry] = None,
) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` and/or ``metrics`` for the enclosed block.

    The only installer of either active slot.  A None argument leaves
    its slot as it is, so one ``with activate(tracer, registry)``
    serves runs that asked for either, both or neither.  Nests: each
    slot's previous occupant (usually None) is restored on exit, so
    tests and benches can scope collection without global cleanup.
    Yields the tracer.
    """
    global _ACTIVE
    previous_tracer = _ACTIVE
    previous_metrics = _metrics._ACTIVE
    if tracer is not None:
        _ACTIVE = tracer
    if metrics is not None:
        _metrics._ACTIVE = metrics
    try:
        yield tracer
    finally:
        _ACTIVE = previous_tracer
        _metrics._ACTIVE = previous_metrics
