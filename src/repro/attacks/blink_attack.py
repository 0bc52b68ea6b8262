"""The Blink capture-and-reroute attack (Section 3.1).

A HOST-level attacker sends persistent fake-retransmission flows toward
a victim prefix through a Blink-equipped router.  Once a majority of
the flow-selector cells hold attacker flows, the attacker's synchronised
fake retransmissions make Blink infer a failure and reroute the prefix
— "possibly onto a path that she controls".

Two granularities:

* :class:`BlinkCaptureAttack` — trace-driven against the full Blink
  pipeline (the paper's packet-level experiment, E2); and
* :class:`BlinkAnalyticalAttack` — the closed-form/Monte-Carlo model
  behind Fig. 2 (E1), packaged as an attack for campaign sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.blink.analysis import fig2_headline
from repro.blink.constants import DEFAULT_CELLS
from repro.blink.packet_level import blink_attack_specs, feed_specs
from repro.blink.pipeline import BlinkSwitch
from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.core.metrics import first_crossing_time
from repro.flows.generators import (
    DurationDistribution,
    malicious_flow_schedule,
    summarize_packets,
)
from repro.obs import tracer as obs


def _workload_tr(workload: str, workload_params: Dict[str, object]) -> float:
    """tR recalibrated for one workload class (measurement seed fixed).

    tR is a property of the legitimate traffic mix, not of a particular
    run, so the measurement uses its own seed/horizon (defaulting to
    seed 0 over 40 s) rather than the sweep cell's — every cell of a
    sweep then shares one calibration, exactly like the paper's fixed
    tR = 8.37 s did.
    """
    from repro.workloads.engine import tr_for_workload

    wp = dict(workload_params)
    seed = int(wp.pop("tr_seed", 0))
    horizon = float(wp.pop("tr_horizon", 40.0))
    return tr_for_workload(workload, seed=seed, horizon=horizon, **wp)


class BlinkAnalyticalAttack(Attack):
    """Closed-form feasibility of capturing half of Blink's sample."""

    name = "blink-capture-analytical"
    required_privilege = Privilege.HOST
    target = Target.INFRASTRUCTURE
    required_capabilities = (Capability.INJECT_FROM_HOST,)
    impacts = (Impact.PRIVACY, Impact.PERFORMANCE, Impact.REACHABILITY)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        qm = float(params.get("qm", 0.0525))
        cells = int(params.get("cells", DEFAULT_CELLS))
        horizon = float(params.get("horizon", 510.0))
        runs = int(params.get("runs", 50))
        seed = int(params.get("seed", 0))
        workload = params.get("workload")
        if params.get("tr") is not None:
            tr = float(params["tr"])  # an explicit tr always wins
        elif workload:
            # Recalibrate tR for the workload class (EXPERIMENTS.md,
            # "tR recalibration") instead of assuming the paper's CAIDA
            # figure.
            tr = _workload_tr(
                str(workload), dict(params.get("workload_params") or {})
            )
        else:
            tr = 8.37
        result = fig2_headline(
            qm=qm, tr=tr, cells=cells, horizon=horizon, runs=runs, seed=seed
        )
        success = result.success_fraction >= 0.5
        details: Dict[str, object] = {
            "threshold": result.threshold,
            "mean_crossing_theory": result.mean_crossing_theory,
            "expected_hitting_theory": result.expected_hitting_theory,
            "median_success_time_theory": result.median_success_time_theory,
            "success_fraction": result.success_fraction,
            "qm": qm,
            "tr": tr,
        }
        if workload:
            details["workload"] = str(workload)
        return AttackResult(
            attack_name=self.name,
            success=success,
            time_to_success=result.mean_crossing_simulated,
            magnitude=result.success_fraction,
            details=details,
        )


class BlinkCaptureAttack(Attack):
    """Packet-level capture attack through the real Blink pipeline.

    With ``defended=True`` each per-prefix monitor is wrapped in the
    Section 5 RTO-plausibility supervisor
    (:func:`repro.defenses.supervised_blink`); the attack then only
    succeeds if a reroute decision makes it *past* the supervisor, and
    the result records how many were vetoed (also visible as
    ``supervisor.*`` events in a trace).
    """

    name = "blink-capture-packet-level"
    required_privilege = Privilege.HOST
    target = Target.INFRASTRUCTURE
    required_capabilities = (Capability.INJECT_FROM_HOST,)
    impacts = (Impact.PRIVACY, Impact.PERFORMANCE, Impact.REACHABILITY)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        prefix = str(params.get("prefix", "198.51.100.0/24"))
        horizon = float(params.get("horizon", 510.0))
        legitimate_flows = int(params.get("legitimate_flows", 2000))
        malicious_flows = int(params.get("malicious_flows", 105))
        duration_median = float(params.get("duration_median", 4.0))
        seed = int(params.get("seed", 0))
        sample_interval = float(params.get("sample_interval", 1.0))
        cells = int(params.get("cells", DEFAULT_CELLS))
        defended = bool(params.get("defended", False))
        min_plausible_gap = float(params.get("min_plausible_gap", 1.0))

        from repro.faults import coerce_plan

        plan = coerce_plan(
            params.get("faults"), seed=int(params.get("fault_seed", 0))
        )

        workload = params.get("workload")
        if workload:
            # Legitimate traffic from a registered workload class; the
            # persistent attack flows ride on top unchanged.  Per-flow
            # RNG streams are identity-derived, so merging the two
            # populations perturbs neither.
            from repro.workloads.engine import iter_workload_specs

            wparams = dict(params.get("workload_params") or {})
            wparams.pop("tr_seed", None)
            wparams.pop("tr_horizon", None)
            legit = list(iter_workload_specs(
                str(workload), seed=seed, horizon=horizon, **wparams
            ))
            bad = malicious_flow_schedule(
                prefix,
                count=malicious_flows,
                horizon=horizon,
                seed=seed + 1,
                spread_start=2.0,
            )
            # Ties between equal times go by position in the start-sorted
            # list, as in emit_trace over that list.
            specs = sorted(legit + bad, key=lambda s: s.start)
            ordered, ranks = specs, None
        else:
            specs = blink_attack_specs(
                destination_prefix=prefix,
                horizon=horizon,
                legitimate_flows=legitimate_flows,
                malicious_flows=malicious_flows,
                duration_model=DurationDistribution(median=duration_median),
                seed=seed,
            )
            # Ties go by spec index, as in emit_trace's stable time sort.
            ranks = sorted(range(len(specs)), key=lambda i: (specs[i].start, i))
            ordered = [specs[i] for i in ranks]
        telemetry_fault = None
        if plan is not None:
            from repro.faults import TelemetryFault

            # Telemetry faults degrade the packet feed the selector
            # samples from — the mirror drops/misreads packets before
            # Blink ever sees them.
            telemetry_fault = TelemetryFault(plan, role="blink.telemetry")
        supervise = None
        if defended:
            from repro.defenses.blink_defense import supervised_blink

            def supervise(monitor):  # noqa: F811 - factory for BlinkSwitch
                return supervised_blink(monitor, min_plausible_gap=min_plausible_gap)

        switch = BlinkSwitch(
            {prefix: ["nh-primary", "nh-backup"]}, cells=cells, supervise=supervise
        )
        # No trace of the whole workload is ever built: the packet-level
        # driver's loop-free feed solves the monitor, bare or under
        # supervised_blink's decision-only supervisor, per cell, and
        # takes a telemetry fault record by record.
        session = switch.replay_session(sample_interval=sample_interval)
        with obs.span(
            "blink.replay_trace", flows=len(specs), prefixes=len(switch.monitors)
        ):
            records, malicious_records = feed_specs(
                session, ordered, seed + 2, ranks=ranks, fault=telemetry_fault
            )
            series = session.finish()[prefix]
        # The workload as generated; ``packets`` below counts what Blink
        # saw after the telemetry fault.
        summary = summarize_packets(specs, records, malicious_records)
        monitor = switch.monitors[prefix]

        threshold = cells // 2
        crossing = first_crossing_time(series.times, series.values, threshold)
        reroutes = monitor.reroutes
        released = switch.decisions
        measured_tr: Optional[float] = None
        if monitor.selector.stats.legit_occupancy_durations:
            measured_tr = monitor.selector.stats.mean_legit_occupancy()
        # Undefended, every inferred reroute is released; defended, the
        # attack must get a decision past the supervisor to count.
        success = bool(released) if defended else bool(reroutes)
        details: Dict[str, object] = {
            "time_to_half_sample": crossing,
            "reroute_events": len(reroutes),
            "first_reroute": reroutes[0].time if reroutes else None,
            "malicious_at_first_reroute": (
                reroutes[0].malicious_monitored_ground_truth if reroutes else None
            ),
            "measured_tr": measured_tr,
            "qm": summary.qm if workload else malicious_flows / legitimate_flows,
            "workload_class": str(workload) if workload else None,
            "packets": session.packets,
            "occupancy_series": series,
            "workload": summary,
        }
        if telemetry_fault is not None:
            details["fault_plan"] = plan.to_spec()
            details["fault_seed"] = plan.seed
            details.update(telemetry_fault.counters())
        if defended:
            driver = switch.drivers[prefix]
            suppressed = getattr(driver, "suppressed", [])
            details["defended"] = True
            details["reroutes_released"] = len(released)
            details["reroutes_vetoed"] = len(suppressed)
        return AttackResult(
            attack_name=self.name,
            success=success,
            time_to_success=(
                released[0].time if defended and released
                else reroutes[0].time if reroutes else None
            ),
            magnitude=max(series.values) / cells if len(series) else 0.0,
            details=details,
        )
