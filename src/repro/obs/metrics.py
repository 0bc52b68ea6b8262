"""Production metrics: counters, gauges, log2 histograms, exposition.

The tracer (:mod:`repro.obs.tracer`) answers *what happened* in one
run; this module answers *how much and how fast*, cheaply enough to
leave on everywhere.  A :class:`MetricRegistry` holds three metric
families:

* **counters** — monotonically increasing floats (event counts,
  cache hits, injected faults, supervisor verdicts);
* **gauges** — last-written values with min/max tracking (queue
  depth, pool hit rate); and
* **histograms** — fixed log2-bucket distributions
  (:class:`Histogram`): an observation of value ``v`` lands in the
  bucket whose upper bound is the smallest power of two ``>= v``.
  Bucket layout is fixed at class level (2^-20 s ≈ 1 µs up to 2^6 =
  64 s, plus overflow), so merging shards is pure elementwise
  addition and never re-bins.

Instrumented code never takes a registry parameter.  Like the tracer,
the active registry is a module global, installed by
:func:`repro.obs.activate` (:func:`activate` here is its metrics-only
form); the module-level :func:`inc` / :func:`observe` /
:func:`gauge_set` helpers route to it, and the disabled path is one
``is None`` check — the property the ``--metrics-budget`` bench gate
(metrics-on within 3 % of metrics-off wall time) enforces in CI.
Simulators that keep end-of-run roll-ups (Blink's selector statistics,
PCC's and Pytheas's summaries) write them as gauges on the active
registry when their run returns; ``RunLedger.from_tracer(tracer,
metrics=registry)`` records the registry's :meth:`~MetricRegistry.
snapshot` as the ledger's one ``run`` metrics block.

Determinism contract: registries serialise via :meth:`to_dict` /
:meth:`from_dict` and merge via :meth:`merge` / :meth:`merge_dict`
(counters and histogram buckets add; gauges fold min/max and take the
*merged-last* value).  The parallel sweep executor merges worker
shards in cell-index order, so for the same seed grid the merged
counter sums and histogram bucket counts are identical whether the
sweep ran serially or across N processes — pinned by
``tests/test_metrics_pipeline.py``.  Only wall-time-valued metrics
(named ``*_s`` by convention) are exempt from value identity; their
observation *counts* still match.

Exposition: :meth:`MetricRegistry.to_prometheus` renders the
Prometheus text format (dots become underscores, counters gain
``_total``, histograms emit cumulative ``_bucket{le=...}`` series);
:func:`append_snapshot` appends one timestamped JSON line per call to
a snapshots file that ``python -m repro top`` tails.  The JSONL schema
is documented in README.md ("Metrics").

Stdlib-only, import-cycle-free: anything in :mod:`repro` may import
this module from a hot path.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Version stamp for :meth:`MetricRegistry.to_dict` and the JSONL
#: snapshot records of :func:`append_snapshot`.
SCHEMA_VERSION = 1

#: Exponent of the lowest finite histogram bucket bound (2^-20 ≈ 1 µs).
BUCKET_LOW_EXP = -20

#: Exponent of the highest finite histogram bucket bound (2^6 = 64 s).
BUCKET_HIGH_EXP = 6

#: Upper bounds of the finite buckets; one overflow bucket follows.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(BUCKET_LOW_EXP, BUCKET_HIGH_EXP + 1)
)

#: Total bucket count: the finite bounds plus the +Inf overflow bucket.
BUCKET_COUNT = len(BUCKET_BOUNDS) + 1


def bucket_index(value: float) -> int:
    """The log2 bucket holding ``value``.

    Bucket ``i`` (for ``i < len(BUCKET_BOUNDS)``) counts observations
    with ``value <= BUCKET_BOUNDS[i]``; the last bucket is overflow.
    Non-positive values land in bucket 0 (they are below every bound),
    non-finite values in the overflow bucket.  ``math.frexp`` gives the
    exponent exactly, so bucketing is bit-reproducible across platforms.
    """
    if value <= BUCKET_BOUNDS[0]:
        return 0
    if not math.isfinite(value) or value > BUCKET_BOUNDS[-1]:
        return BUCKET_COUNT - 1
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp puts mantissa in [0.5, 1): value <= 2**exponent, with
    # equality exactly when value is a power of two (mantissa == 0.5,
    # where the tighter bound 2**(exponent-1) applies).
    if mantissa == 0.5:
        exponent -= 1
    return exponent - BUCKET_LOW_EXP


class Histogram:
    """Fixed log2-bucket histogram with sum/count/min/max.

    The bucket layout never varies per instance, so two histograms of
    the same name merge by elementwise bucket addition — the property
    worker-shard merging relies on.
    """

    __slots__ = ("buckets", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * BUCKET_COUNT
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.buckets[bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th observation); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank:
                if index >= len(BUCKET_BOUNDS):
                    return math.inf
                return BUCKET_BOUNDS[index]
        return math.inf  # pragma: no cover - unreachable (seen == count)

    def summary(self) -> Dict[str, float]:
        """Scalar roll-up for ledgers and tables."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge(self, other: "Histogram") -> None:
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum


class MetricRegistry:
    """Named counters, gauges and log2 histograms for one run (or shard).

    The program's one metric registry: the simulators, the sweep
    executor, the sharded coordinators, ``--metrics-out`` and the run
    ledger all read and write this class.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, List[float]] = {}  # name -> [value, min, max]
        self.histograms: Dict[str, Histogram] = {}

    # -- writes ------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter ``name``."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (amount={amount})")
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name``, folding its min/max watermarks."""
        gauge = self.gauges.get(name)
        if gauge is None:
            self.gauges[name] = [value, value, value]
        else:
            gauge[0] = value
            if value < gauge[1]:
                gauge[1] = value
            if value > gauge[2]:
                gauge[2] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Observe the wall time of the enclosed block into ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- reads -------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        gauge = self.gauges.get(name)
        return gauge[0] if gauge is not None else None

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def snapshot(self) -> Dict[str, object]:
        """Flat, sorted, JSON-safe view (the ledger's ``run`` block).

        Counters appear as ``counter.<name>``, gauges as
        ``gauge.<name>`` (scalar; watermarks as ``.min``/``.max``) and
        histograms as ``hist.<name>`` mapped to their scalar summary.
        """
        snap: Dict[str, object] = {}
        for name in sorted(self.counters):
            snap[f"counter.{name}"] = self.counters[name]
        for name in sorted(self.gauges):
            value, low, high = self.gauges[name]
            snap[f"gauge.{name}"] = value
            if low != high:
                snap[f"gauge.{name}.min"] = low
                snap[f"gauge.{name}.max"] = high
        for name in sorted(self.histograms):
            snap[f"hist.{name}"] = self.histograms[name].summary()
        return snap

    # -- serialisation / merge ---------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Structured, JSON/pickle-safe form for shard shipping."""
        return {
            "schema": SCHEMA_VERSION,
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {
                name: list(self.gauges[name]) for name in sorted(self.gauges)
            },
            "histograms": {
                name: {
                    "buckets": list(hist.buckets),
                    "count": hist.count,
                    "sum": hist.total,
                    "min": hist.minimum if hist.count else None,
                    "max": hist.maximum if hist.count else None,
                }
                for name, hist in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricRegistry":
        """Rebuild a registry serialised by :meth:`to_dict`."""
        registry = cls()
        registry.merge_dict(data)
        return registry

    def merge_dict(self, data: Dict[str, object], prefix: str = "") -> None:
        """Merge a :meth:`to_dict` payload into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (merged-last wins) and fold watermarks.  Deterministic as
        long as callers merge shards in a fixed order (the sweep
        executor merges by cell index).

        ``prefix`` is prepended to every incoming metric name.  Callers
        merging registries from *distinct* sources (e.g. the sharded
        event engine folding per-shard registries into the
        coordinator's) pass ``prefix=f"shard{i}."`` so same-named
        counters from different shards stay distinguishable instead of
        silently summing.
        """
        for name, amount in (data.get("counters") or {}).items():
            name = prefix + name
            self.counters[name] = self.counters.get(name, 0) + amount
        for name, packed in (data.get("gauges") or {}).items():
            name = prefix + name
            value, low, high = packed
            gauge = self.gauges.get(name)
            if gauge is None:
                self.gauges[name] = [value, low, high]
            else:
                gauge[0] = value
                if low < gauge[1]:
                    gauge[1] = low
                if high > gauge[2]:
                    gauge[2] = high
        for name, packed in (data.get("histograms") or {}).items():
            name = prefix + name
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            buckets = packed.get("buckets") or []
            if len(buckets) != BUCKET_COUNT:
                raise ValueError(
                    f"histogram {name!r} has {len(buckets)} buckets, "
                    f"expected {BUCKET_COUNT}"
                )
            for index, bucket_count in enumerate(buckets):
                histogram.buckets[index] += bucket_count
            histogram.count += packed.get("count", 0)
            histogram.total += packed.get("sum", 0.0)
            low = packed.get("min")
            high = packed.get("max")
            if low is not None and low < histogram.minimum:
                histogram.minimum = low
            if high is not None and high > histogram.maximum:
                histogram.maximum = high

    def merge(self, other: "MetricRegistry") -> None:
        self.merge_dict(other.to_dict())

    # -- exposition --------------------------------------------------------

    def to_prometheus(self, namespace: str = "repro") -> str:
        """Render the registry in the Prometheus text exposition format.

        Naming: ``<namespace>_<name>`` with every character outside
        ``[a-zA-Z0-9_]`` mapped to ``_`` (so dotted metric names like
        ``netsim.events.calendar`` become
        ``repro_netsim_events_calendar``).  Counters gain the
        conventional ``_total`` suffix; histograms emit cumulative
        ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``;
        gauge watermarks export as ``_min`` / ``_max`` gauges.
        """
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = f"{_sanitize(namespace)}_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_number(self.counters[name])}")
        for name in sorted(self.gauges):
            value, low, high = self.gauges[name]
            metric = f"{_sanitize(namespace)}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_number(value)}")
            if low != high:
                lines.append(f"{metric}_min {_format_number(low)}")
                lines.append(f"{metric}_max {_format_number(high)}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            metric = f"{_sanitize(namespace)}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index, bound in enumerate(BUCKET_BOUNDS):
                cumulative += histogram.buckets[index]
                lines.append(
                    f'{metric}_bucket{{le="{_format_number(bound)}"}} {cumulative}'
                )
            cumulative += histogram.buckets[-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {_format_number(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric-name fragment."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def label(fragment: str) -> str:
    """A metric-name-safe label from free text (scenario names etc.).

    Registry names tolerate dashes (exposition sanitises again), but
    dots would splice extra hierarchy levels into the metric tree, so
    they — and whitespace — are folded to underscores here.
    """
    return "".join(c if c.isalnum() or c in "_-" else "_" for c in fragment)


def _format_number(value: float) -> str:
    """Compact numeric rendering: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- JSONL snapshot stream ---------------------------------------------------


def append_snapshot(path: str, registry: MetricRegistry, **meta: object) -> None:
    """Append one timestamped snapshot record to a JSONL file.

    Record schema (versioned by ``schema``)::

        {"record": "metrics.snapshot", "schema": 1, "t_wall": <unix>,
         ...meta, "metrics": <MetricRegistry.to_dict()>}

    ``meta`` carries caller context (attack name, cell index, ...).
    Appending keeps the file a tailable stream: ``python -m repro top``
    renders the latest record live while a sweep is still writing.
    """
    record = {
        "record": "metrics.snapshot",
        "schema": SCHEMA_VERSION,
        "t_wall": time.time(),
        **meta,
        "metrics": registry.to_dict(),
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_snapshots(path: str) -> List[dict]:
    """Parse a snapshots file, tolerating a torn (mid-write) tail line."""
    records: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return records
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                break  # torn tail: the writer is mid-append
            raise
        if isinstance(record, dict) and record.get("record") == "metrics.snapshot":
            records.append(record)
    return records


# -- module-level routing ----------------------------------------------------
#
# Mirrors the tracer: a plain module global, not a contextvar — every
# simulator here is single-threaded and the disabled fast path must
# stay one ``is None`` check.

_ACTIVE: Optional[MetricRegistry] = None


def current() -> Optional[MetricRegistry]:
    """The active registry, or None when metrics are off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def inc(name: str, amount: float = 1.0) -> None:
    """Increment on the active registry; no-op when metrics are off."""
    registry = _ACTIVE
    if registry is not None:
        registry.inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge on the active registry; no-op when metrics are off."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge_set(name, value)


def observe(name: str, value: float) -> None:
    """Histogram observation on the active registry; no-op when off."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value)


@contextmanager
def activate(registry: MetricRegistry) -> Iterator[MetricRegistry]:
    """Metrics-only :func:`repro.obs.activate`: install ``registry``
    for the enclosed block, leaving the active tracer as it is."""
    from repro.obs.tracer import activate as activate_both

    with activate_both(metrics=registry):
        yield registry
