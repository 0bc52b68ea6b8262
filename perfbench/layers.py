"""Per-layer metrics: where the hooks go and how each metric is read.

Every metric is measured from outside the program: span totals from the
wrappers in :data:`HOOKS`, counters from the program's own
``repro.obs.metrics`` registry (activated around the traced
repetition; forked shard and sweep workers merge theirs into it), and
fields of the reports the program returns.  README.md maps each metric
to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Hook, Total

#: Per-packet hooks: folded into running totals instead of kept whole.
_HOT = True

HOOKS: List[Hook] = [
    Hook("repro.blink.packet_level:blink_attack_specs", "flows.specs"),
    Hook("repro.flows.generators:flow_packet_schedule", "flows.schedule"),
    Hook("repro.netsim.events:EventLoop.run_until", "events.run", count=int),
    Hook("repro.netsim.trace:StreamingTraceAggregator.observe", "trace.observe", _HOT),
    Hook("repro.blink.pipeline:TraceReplaySession.feed", "blink.feed", _HOT),
    Hook("repro.blink.pipeline:BlinkSwitch.replay_record", "blink.replay", _HOT),
    Hook("repro.blink.selector:FlowSelector.retransmitting_count", "blink.retx_scan", _HOT),
    Hook("repro.netsim.sharded:ShardedPacketEngine.prepare", "sharded.prepare"),
    Hook("repro.netsim.sharded:ShardedPacketEngine.run", "sharded.run"),
    Hook("repro.netsim.topology:clustered_random_topology", "topology.build"),
    Hook("repro.netsim.routing:StaticRouter.compute", "routing.compute"),
    Hook("repro.netsim.forwarding:iter_forwarding_flows", "workloads.flowgen", iterator=True),
    Hook("repro.runner.parallel:ParallelSweepExecutor.run", "runner.run"),
    Hook("repro.core.attack:Attack.run", lambda args: f"attacks.{args[0].name}"),
    Hook("repro.workloads.engine:tr_for_workload", "workloads.tr"),
]

#: The attack families the scenario sweep runs.  The other registered
#: attacks run in no workload, so their metrics would always read 0.
ATTACK_FAMILIES = (
    "blink-capture-packet-level",
    "blink-capture-analytical",
    "pcc-utility-equalisation",
    "pytheas-report-poisoning",
)

#: (metric, unit, better) in BENCHMARK.json order.  Counts that witness
#: the same outcome (events, deliveries, reroutes, cells) should never
#: move; they are "higher" only because losing one would be a loss.
METRICS: List[Tuple[str, str, str]] = [
    ("flows.specs_s", "s", "lower"),
    ("flows.schedule_calls", "count", "lower"),
    ("flows.schedule_s", "s", "lower"),
    ("events.dispatched", "count", "higher"),
    ("events.run_self_s", "s", "lower"),
    ("trace.observe_calls", "count", "lower"),
    ("trace.observe_self_s", "s", "lower"),
    ("blink.feed_self_s", "s", "lower"),
    ("blink.replay_s", "s", "lower"),
    ("blink.retx_scan_calls", "count", "lower"),
    ("blink.retx_scan_s", "s", "lower"),
    ("blink.reroutes", "count", "higher"),
    ("blink.samples", "count", "higher"),
    ("sharded.prepare_s", "s", "lower"),
    ("sharded.run_self_s", "s", "lower"),
    ("sharded.windows", "count", "lower"),
    ("sharded.fast_forwards", "count", "higher"),
    ("sharded.pipe_bytes", "bytes", "lower"),
    ("sharded.horizon_stall_s", "s", "lower"),
    ("sharded.shard0.events", "count", "higher"),
    ("sharded.shard1.events", "count", "higher"),
    ("topology.build_s", "s", "lower"),
    ("routing.compute_s", "s", "lower"),
    ("workloads.flowgen_s", "s", "lower"),
    ("forwarding.windows", "count", "lower"),
    ("forwarding.fast_forwards", "count", "higher"),
    ("forwarding.boundary_packets", "count", "lower"),
    ("forwarding.pipe_bytes", "bytes", "lower"),
    ("forwarding.max_shard_share", "ratio", "lower"),
    ("forwarding.events", "count", "higher"),
    ("forwarding.delivered", "count", "higher"),
    ("runner.cells", "count", "higher"),
    ("runner.self_s", "s", "lower"),
    *[(f"attacks.{family}_s", "s", "lower") for family in ATTACK_FAMILIES],
    ("workloads.tr_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("tracing.overhead", "ratio", "lower"),
]


def layer_values(totals: Dict[str, Total], registry, report) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition, except the overhead.

    ``report`` is what the workload's entry point returned: a
    ``PacketLevelReport``, a ``ForwardingReport`` or the list of
    ``ScenarioRun`` of a sweep.
    """

    def total(name: str) -> Total:
        return totals.get(name, Total())

    counters = registry.counters
    stall = registry.histograms.get("sharded.horizon_stall_s")
    out: Dict[str, float] = {
        "flows.specs_s": total("flows.specs").total_s,
        "flows.schedule_calls": total("flows.schedule").calls,
        "flows.schedule_s": total("flows.schedule").total_s,
        "events.dispatched": total("events.run").n,
        "events.run_self_s": total("events.run").self_s,
        "trace.observe_calls": total("trace.observe").calls,
        "trace.observe_self_s": total("trace.observe").self_s,
        "blink.feed_self_s": total("blink.feed").self_s,
        "blink.replay_s": total("blink.replay").total_s,
        "blink.retx_scan_calls": total("blink.retx_scan").calls,
        "blink.retx_scan_s": total("blink.retx_scan").total_s,
        "blink.reroutes": getattr(report, "reroutes", 0),
        "blink.samples": len(getattr(report, "sample_times", ())),
        "sharded.prepare_s": total("sharded.prepare").total_s,
        "sharded.run_self_s": total("sharded.run").self_s,
        "sharded.windows": counters.get("sharded.windows", 0),
        "sharded.fast_forwards": counters.get("sharded.fast_forwards", 0),
        "sharded.pipe_bytes": counters.get("sharded.pipe_bytes", 0),
        "sharded.horizon_stall_s": stall.total if stall is not None else 0.0,
        "sharded.shard0.events": counters.get("sharded.shard0.events", 0),
        "sharded.shard1.events": counters.get("sharded.shard1.events", 0),
        "topology.build_s": total("topology.build").total_s,
        "routing.compute_s": total("routing.compute").total_s,
        "workloads.flowgen_s": total("workloads.flowgen").total_s,
        "runner.cells": counters.get("sweep.cells_executed", 0),
        "runner.self_s": total("runner.run").self_s,
        "workloads.tr_s": total("workloads.tr").total_s,
        "kernels.calls": sum(
            value for name, value in counters.items() if "kernels.calls." in name
        ),
    }
    for family in ATTACK_FAMILIES:
        out[f"attacks.{family}_s"] = total(f"attacks.{family}").total_s
    per_shard = getattr(report, "per_shard_events", None)
    forwarding = per_shard is not None
    events = report.events if forwarding else 0
    out.update(
        {
            "forwarding.windows": report.windows if forwarding else 0,
            "forwarding.fast_forwards": report.fast_forwards if forwarding else 0,
            "forwarding.boundary_packets": report.boundary_packets if forwarding else 0,
            "forwarding.pipe_bytes": report.pipe_bytes if forwarding else 0,
            "forwarding.max_shard_share": max(per_shard) / events if forwarding and events else 0.0,
            "forwarding.events": events,
            "forwarding.delivered": report.delivered if forwarding else 0,
        }
    )
    return out
