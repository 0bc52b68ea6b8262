"""Machine-readable run provenance: the :class:`RunLedger`.

A ledger captures everything needed to replay or diagnose one run —
what was executed (attack name, parameters, seed, git version), what it
cost (wall time), what the simulators measured (merged metric
snapshots) and what happened along the way (the tracer's span/event
log).  Ledgers round-trip through JSONL (one self-describing record per
line) and export flat CSV for spreadsheet-side analysis; ``python -m
repro report <file>`` renders one back into the same tables/sparklines
the benches print.

JSONL schema (``schema`` field versions it):

* ``{"record": "run", ...}`` — exactly one, first line: provenance.
* ``{"record": "metrics", "source": "run", "values": {...}}`` — at
  most one: the run's :class:`~repro.obs.metrics.MetricRegistry`
  snapshot.
* ``{"record": "event", "kind": k, "t": seconds, ...fields}`` — the
  trace, in emission order; spans appear as ``kind == "span"`` and
  metric snapshots are mirrored as ``kind == "metrics.snapshot"``
  events so a trace alone is self-contained.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer

SCHEMA_VERSION = 1

#: Event kinds that make up the supervisor audit trail.
SUPERVISOR_EVENT_KINDS = (
    "supervisor.check",
    "supervisor.veto",
    "supervisor.range_violation",
    "supervisor.risk_alarm",
    "supervisor.degraded_enter",
    "supervisor.degraded_exit",
    "supervisor.degraded_pass",
    "supervisor.degraded_hold",
)

#: The subset marking graceful-degradation transitions.
DEGRADATION_EVENT_KINDS = (
    "supervisor.degraded_enter",
    "supervisor.degraded_exit",
)


def jsonable(value: object) -> object:
    """Best-effort conversion of ``value`` into JSON-encodable types.

    Attack ``details`` and event fields carry simulator objects
    (``TimeSeries``, dataclasses, enums, five-tuples); flattening is
    lossy by design — a ledger stores what a reader needs, not live
    objects.  Non-finite floats become strings because strict JSON has
    no spelling for them.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, enum.Enum):
        raw = value.value
        return raw if isinstance(raw, (bool, int, float, str)) else value.name
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    # TimeSeries-like: summarise rather than dumping every point.
    summary = getattr(value, "summary", None)
    if callable(summary) and hasattr(value, "times"):
        return {"series": getattr(value, "name", ""), **summary()}
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__  # type: ignore[attr-defined]
        }
    return str(value)


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree, or 'unknown'."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = proc.stdout.strip()
    return described if proc.returncode == 0 and described else "unknown"


@dataclass
class RunLedger:
    """Provenance + metrics + trace of one run."""

    run: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        metrics: Optional[MetricRegistry] = None,
        **run_info: object,
    ) -> "RunLedger":
        """Freeze a tracer, and the run's registry if any, into a ledger.

        ``metrics`` becomes the ledger's one ``run`` metrics block, equal
        to its :meth:`~repro.obs.metrics.MetricRegistry.snapshot`.
        ``run_info`` supplies provenance (attack, params, seed,
        wall_seconds, ...); git version and trace roll-ups are added
        here so every ledger is attributable.
        """
        events: List[Dict[str, object]] = [
            {"kind": event.kind, "t": event.time, **event.fields}
            for event in tracer.events
        ]
        blocks: Dict[str, Dict[str, object]] = {}
        if metrics is not None:
            blocks["run"] = metrics.snapshot()
            events.append(
                {"kind": "metrics.snapshot", "t": None, "source": "run", "values": blocks["run"]}
            )
        run: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "git": git_describe(),
            **run_info,
            "events_dropped": tracer.dropped,
            "span_totals": tracer.span_totals(),
        }
        return cls(run=run, metrics=blocks, events=events)

    def add_record(self, record: object) -> bool:
        """File one parsed JSONL record under its ``record`` type.

        Returns False, filing nothing, when ``record`` is not a dict of
        a known type: :meth:`from_jsonl` raises on such a line, while
        ``repro top`` skips it.
        """
        if not isinstance(record, dict):
            return False
        record_type = record.get("record")
        if record_type == "run":
            self.run = record
        elif record_type == "metrics":
            self.metrics[str(record.get("source", ""))] = record.get("values", {})
        elif record_type == "event":
            self.events.append(record)
        else:
            return False
        del record["record"]
        return True

    # -- queries -----------------------------------------------------------

    def events_of(self, kind: str) -> List[Dict[str, object]]:
        return [event for event in self.events if event.get("kind") == kind]

    def supervisor_events(self) -> List[Dict[str, object]]:
        """The audit trail: every supervisor verdict recorded in the run."""
        return [
            event
            for event in self.events
            if event.get("kind") in SUPERVISOR_EVENT_KINDS
        ]

    def degradation_transitions(self) -> List[Dict[str, object]]:
        """Every graceful-degradation enter/exit recorded in the run."""
        return [
            event
            for event in self.events
            if event.get("kind") in DEGRADATION_EVENT_KINDS
        ]

    def self_time_profile(self) -> List[Dict[str, object]]:
        """Per-span-name *self* time: inclusive duration minus children.

        Span events close innermost-first (a child's ``span`` event is
        emitted before its parent's), and each carries its nesting
        ``depth``; one pass over the log can therefore subtract, from
        every closing span, the accumulated durations of the spans that
        closed one level deeper since — no live tracer needed, a parsed
        ledger has everything.  Worker shards ingest as contiguous
        blocks with their own depth-0 roots, so nesting stays coherent
        across a sweep.  Rows are sorted by descending self time; the
        clock-jitter case (children summing past the parent) clamps at
        zero rather than going negative.
        """
        profile: Dict[str, List[float]] = {}  # name -> [count, total, self]
        child_at_depth: Dict[int, float] = {}
        for event in self.events:
            if event.get("kind") != "span":
                continue
            name = str(event.get("name", "?"))
            duration = event.get("duration_s")
            duration = float(duration) if isinstance(duration, (int, float)) else 0.0
            depth = event.get("depth")
            depth = int(depth) if isinstance(depth, int) else 0
            self_s = max(0.0, duration - child_at_depth.pop(depth + 1, 0.0))
            child_at_depth[depth] = child_at_depth.get(depth, 0.0) + duration
            stats = profile.get(name)
            if stats is None:
                profile[name] = [1, duration, self_s]
            else:
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
        grand_self = sum(stats[2] for stats in profile.values())
        rows = [
            {
                "span": name,
                "count": int(stats[0]),
                "total_s": stats[1],
                "self_s": stats[2],
                "self_pct": 100.0 * stats[2] / grand_self if grand_self > 0 else 0.0,
            }
            for name, stats in profile.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["span"]))
        return rows

    # -- exporters ---------------------------------------------------------

    def to_jsonl(self, path: str) -> None:
        """Write the ledger as one JSON record per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(jsonable({"record": "run", **self.run})) + "\n")
            for source, values in self.metrics.items():
                record = {"record": "metrics", "source": source, "values": values}
                handle.write(json.dumps(jsonable(record)) + "\n")
            for event in self.events:
                handle.write(json.dumps(jsonable({"record": "event", **event})) + "\n")

    def to_csv(self, path: str) -> None:
        """Write the event log as flat CSV (one row per event).

        Columns are the union of field names across events; values that
        are not scalars are JSON-encoded in place so the file stays
        loadable by anything that reads CSV.
        """
        columns: List[str] = ["kind", "t"]
        for event in self.events:
            for key in event:
                if key not in columns:
                    columns.append(key)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for event in self.events:
                row = {}
                for key in columns:
                    value = jsonable(event.get(key, ""))
                    if isinstance(value, (dict, list)):
                        value = json.dumps(value)
                    row[key] = value
                writer.writerow(row)

    @classmethod
    def from_jsonl(cls, path: str) -> "RunLedger":
        """Parse a ledger written by :meth:`to_jsonl`."""
        from repro.core.errors import ConfigurationError

        ledger = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"{path}:{line_number}: not valid JSON: {exc}"
                    ) from exc
                if not ledger.add_record(record):
                    record_type = record.get("record") if isinstance(record, dict) else None
                    raise ConfigurationError(
                        f"{path}:{line_number}: unknown record type {record_type!r}"
                    )
        if not ledger.run:
            raise ConfigurationError(f"{path}: no 'run' record found")
        return ledger

    # -- rendering ---------------------------------------------------------

    def render(self, width: int = 60) -> str:
        """Human-readable report: tables + histogram, via analysis.reporting.

        ``width`` bounds the event-timeline sparkline.  Degenerate
        inputs never raise: a nonsensical width is clamped into
        [1, 400], and every block — including the timeline, which needs
        at least one timestamped event — renders only when it has rows,
        so ``repro report`` works on empty or partial ledgers.
        """
        from repro.analysis.reporting import ascii_table, format_value, sparkline

        try:
            width = int(width)
        except (TypeError, ValueError):
            width = 60
        width = max(1, min(width, 400))

        blocks: List[str] = []
        run_rows = [
            {"field": key, "value": format_value(jsonable(value))}
            for key, value in self.run.items()
            if key not in ("span_totals", "params")
        ]
        params = self.run.get("params")
        if isinstance(params, dict):
            for key, value in sorted(params.items()):
                run_rows.append({"field": f"param.{key}", "value": format_value(value)})
        if run_rows:
            blocks.append(ascii_table(run_rows, title="run"))

        timeline = self._timeline_block(width, sparkline)
        if timeline:
            blocks.append(timeline)

        span_totals = self.run.get("span_totals")
        if isinstance(span_totals, dict) and span_totals:
            span_rows = [
                {
                    "span": name,
                    "count": stats.get("count", 0),
                    "total_s": stats.get("total_s", 0.0),
                    "max_s": stats.get("max_s", 0.0),
                }
                for name, stats in sorted(span_totals.items())
            ]
            blocks.append(ascii_table(span_rows, title="spans"))

        for source, values in sorted(self.metrics.items()):
            metric_rows = [
                {"metric": key, "value": format_value(jsonable(value))}
                for key, value in sorted(values.items())
            ]
            if metric_rows:
                blocks.append(ascii_table(metric_rows, title=f"metrics: {source}"))

        histogram: Dict[str, int] = {}
        for event in self.events:
            kind = str(event.get("kind", "?"))
            histogram[kind] = histogram.get(kind, 0) + 1
        if histogram:
            event_rows = [
                {"event kind": kind, "count": count}
                for kind, count in sorted(histogram.items())
            ]
            blocks.append(ascii_table(event_rows, title="event log"))

        audits = self.supervisor_events()
        if audits:
            audit_rows = [
                {
                    "kind": event.get("kind"),
                    "t_sim": format_value(event.get("t_sim", "")),
                    "risk": format_value(event.get("risk", "")),
                    "action": event.get("action", ""),
                    "subject": event.get("subject", ""),
                }
                for event in audits[:20]
            ]
            title = f"supervisor audit trail ({len(audits)} events, first 20)"
            blocks.append(ascii_table(audit_rows, title=title))
        return "\n\n".join(blocks)

    def _timeline_block(self, width: int, sparkline) -> str:
        """Event density over run time as a sparkline, or "" if moot.

        Events are bucketed into at most ``width`` equal slices of
        [0, t_max]; ledgers whose events all share one timestamp (or
        carry none, e.g. pure ``metrics.snapshot`` records) yield no
        block rather than a degenerate plot.
        """
        times = [
            float(event["t"])
            for event in self.events
            if isinstance(event.get("t"), (int, float))
        ]
        if len(times) < 2:
            return ""
        t_max = max(times)
        if t_max <= 0:
            return ""
        bucket_count = max(1, min(width, len(times)))
        counts = [0] * bucket_count
        for t in times:
            index = min(int(t / t_max * bucket_count), bucket_count - 1)
            counts[index] += 1
        return (
            f"event timeline ({len(times)} events over {t_max:.3f}s)\n"
            f"  {sparkline(counts, width)}"
        )

    def render_profile(self) -> str:
        """The ``repro report --profile`` view: self-time ranked spans."""
        from repro.analysis.reporting import ascii_table, format_value

        rows = self.self_time_profile()
        if not rows:
            return "no span events in this ledger (was tracing on?)"
        formatted = [
            {
                "span": row["span"],
                "count": row["count"],
                "total_s": format_value(row["total_s"]),
                "self_s": format_value(row["self_s"]),
                "self_%": f"{row['self_pct']:.1f}",
            }
            for row in rows
        ]
        return ascii_table(formatted, title="self-time profile (descending)")
