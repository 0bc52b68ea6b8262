"""Observability: span tracing, structured event logs, run ledgers.

The runtime half lives in :mod:`repro.obs.tracer` (stdlib-only, safe to
import from any hot path); quantitative telemetry in
:mod:`repro.obs.metrics` (counters/gauges/histograms, also hot-path
safe); the persistence half in :mod:`repro.obs.ledger` (JSONL/CSV
export, report rendering).  The ledger module is loaded lazily so that
instrumented core modules importing this package never pull reporting
machinery — or an import cycle — into simulator import time.

Typical use::

    from repro.obs import MetricRegistry, Tracer, RunLedger, activate

    tracer, registry = Tracer(), MetricRegistry()
    with activate(tracer, registry):
        result = attack.run(seed=1)
    ledger = RunLedger.from_tracer(tracer, metrics=registry, attack=attack.name, seed=1)
    ledger.to_jsonl("run.jsonl")

:func:`activate` is the one installer of the active tracer and the
active registry; either argument may be None.
"""

from repro.obs.metrics import Histogram, MetricRegistry
from repro.obs.tracer import (
    DEFAULT_MAX_EVENTS,
    TraceEvent,
    Tracer,
    activate,
    current,
    emit,
    enabled,
    span,
)

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "DEGRADATION_EVENT_KINDS",
    "Histogram",
    "MetricRegistry",
    "RunLedger",
    "SUPERVISOR_EVENT_KINDS",
    "TraceEvent",
    "Tracer",
    "activate",
    "current",
    "emit",
    "enabled",
    "git_describe",
    "jsonable",
    "span",
]

_LEDGER_EXPORTS = (
    "RunLedger",
    "SUPERVISOR_EVENT_KINDS",
    "DEGRADATION_EVENT_KINDS",
    "git_describe",
    "jsonable",
)


def __getattr__(name: str):
    if name in _LEDGER_EXPORTS:
        from repro.obs import ledger

        return getattr(ledger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
