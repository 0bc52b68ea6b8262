"""Attacks on Pytheas (Section 4.1).

* :class:`PytheasPoisoningAttack` — a HOST-level botnet inside a group
  reports fake low QoE for the group's best decision, dragging the
  whole group onto a worse one.
* :class:`PytheasImbalanceAttack` — a MITM-level attacker throttles a
  group's traffic to one CDN site, so the E2 process herds entire
  groups onto the other site and overloads it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.pytheas.controller import PytheasController, ReportFilter
from repro.pytheas.qoe import CdnSite, QoEModel
from repro.pytheas.session import SessionFeatures
from repro.pytheas.simulator import (
    GroupPopulation,
    PytheasSimulation,
    TargetedLiar,
    Throttler,
)


def _default_sites() -> List[CdnSite]:
    """Two-CDN scenario: A is genuinely better by a modest margin."""
    return [
        CdnSite("cdn-A", base_qoe=80.0, capacity=5000, noise_std=4.0),
        CdnSite("cdn-B", base_qoe=74.0, capacity=5000, noise_std=4.0),
    ]


class PytheasPoisoningAttack(Attack):
    """Fake QoE reports drive group-wide decisions (E5)."""

    name = "pytheas-report-poisoning"
    required_privilege = Privilege.HOST
    target = Target.ENDPOINT
    required_capabilities = (Capability.MANIPULATE_OWN_TRAFFIC,)
    impacts = (Impact.PERFORMANCE, Impact.REVENUE_LOSS)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        attacker_fraction = float(params.get("attacker_fraction", 0.10))
        rounds = int(params.get("rounds", 120))
        sessions_per_round = int(params.get("sessions_per_round", 100))
        seed = int(params.get("seed", 0))
        sites = params.get("sites") or _default_sites()
        report_filter: Optional[ReportFilter] = params.get("report_filter")  # type: ignore[assignment]
        tail_rounds = int(params.get("tail_rounds", 20))

        from repro.faults import coerce_plan

        plan = coerce_plan(
            params.get("faults"), seed=int(params.get("fault_seed", 0))
        )
        telemetry_faults: Dict[int, object] = {}

        def build(fraction: float, offset: int) -> PytheasSimulation:
            model = QoEModel([CdnSite(**vars_of(s)) for s in sites], seed=seed + 1 + offset)
            effective_filter = report_filter
            if plan is not None:
                from repro.faults import TelemetryFault

                # QoE reports are lost or garbled on the wire before the
                # controller (and any defense filter) ever sees them.
                fault = TelemetryFault(plan, role=f"pytheas.reports.{offset}")
                effective_filter = fault.report_filter(report_filter)
                telemetry_faults[offset] = fault
            controller = PytheasController(
                [s.name for s in sites], seed=seed + 2 + offset, report_filter=effective_filter
            )
            best = model.best_decision("g:3303,zrh")
            population = GroupPopulation(
                features=SessionFeatures(asn=3303, location="zrh"),
                sessions_per_round=sessions_per_round,
                attacker_fraction=fraction,
                attacker_strategy=TargetedLiar(best) if fraction > 0 else None,
            )
            simulation = PytheasSimulation(controller, model, [population])
            simulation.run(rounds)
            return simulation

        baseline = build(0.0, 0)
        attacked = build(attacker_fraction, 100)
        group_id = attacked.controller.groups.group_ids()[0]
        baseline_qoe = baseline.benign_qoe_tail_mean(group_id, tail_rounds)
        attacked_qoe = attacked.benign_qoe_tail_mean(group_id, tail_rounds)
        qoe_loss = baseline_qoe - attacked_qoe

        benign_per_round = sessions_per_round * (1.0 - attacker_fraction)
        attackers_per_round = sessions_per_round * attacker_fraction
        amplification = (
            benign_per_round / attackers_per_round if attackers_per_round > 0 else 0.0
        )
        flipped = (
            attacked.controller.preferred_decision(group_id)
            != baseline.controller.preferred_decision(group_id)
        )
        details_extra: Dict[str, object] = {}
        if plan is not None:
            details_extra["fault_plan"] = plan.to_spec()
            details_extra["fault_seed"] = plan.seed
            attacked_fault = telemetry_faults.get(100)
            if attacked_fault is not None:
                details_extra.update(attacked_fault.counters())
        return AttackResult(
            attack_name=self.name,
            success=qoe_loss > 1.0,
            time_to_success=None,
            magnitude=qoe_loss,
            details={
                "attacker_fraction": attacker_fraction,
                "baseline_benign_qoe": baseline_qoe,
                "attacked_benign_qoe": attacked_qoe,
                "qoe_loss": qoe_loss,
                "group_flipped": flipped,
                "preferred_baseline": baseline.controller.preferred_decision(group_id),
                "preferred_attacked": attacked.controller.preferred_decision(group_id),
                "victims_per_attacker": amplification,
                "reports_filtered": sum(
                    s.reports_filtered for s in attacked.controller._state.values()
                ),
                **details_extra,
            },
        )


class PytheasImbalanceAttack(Attack):
    """CDN throttling herds groups and overloads the other site (E6)."""

    name = "pytheas-cdn-imbalance"
    required_privilege = Privilege.MITM
    target = Target.ENDPOINT
    required_capabilities = (Capability.DROP_ON_LINK,)
    impacts = (Impact.PERFORMANCE, Impact.REVENUE_LOSS)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        rounds = int(params.get("rounds", 150))
        groups = int(params.get("groups", 5))
        sessions_per_round = int(params.get("sessions_per_round", 80))
        throttle_penalty = float(params.get("throttle_penalty", 40.0))
        seed = int(params.get("seed", 0))
        # Both sites equally good, but B's capacity only fits part of
        # the total demand — herding everyone onto B overloads it.
        total_demand = groups * sessions_per_round
        sites = [
            CdnSite("cdn-A", base_qoe=80.0, capacity=total_demand, noise_std=4.0),
            CdnSite(
                "cdn-B",
                base_qoe=78.0,
                capacity=max(1, int(total_demand * 0.5)),
                noise_std=4.0,
                overload_penalty=50.0,
            ),
        ]

        def build(throttled: bool) -> PytheasSimulation:
            model = QoEModel(
                [CdnSite(**vars_of(s)) for s in sites], seed=seed + (10 if throttled else 0)
            )
            controller = PytheasController(["cdn-A", "cdn-B"], seed=seed + 1)
            populations = [
                GroupPopulation(
                    features=SessionFeatures(asn=1000 + g, location="zrh"),
                    sessions_per_round=sessions_per_round,
                )
                for g in range(groups)
            ]
            throttler = Throttler("cdn-A", penalty=throttle_penalty) if throttled else None
            simulation = PytheasSimulation(
                controller, model, populations, throttler=throttler
            )
            simulation.run(rounds)
            return simulation

        baseline = build(False)
        attacked = build(True)
        share_b_baseline = baseline.decision_share("cdn-B")
        share_b_attacked = attacked.decision_share("cdn-B")

        def peak_overload(simulation) -> float:
            peak = 0.0
            for stats in simulation.round_stats:
                b_load = stats.assignments.get("cdn-B", 0)
                peak = max(peak, b_load / sites[1].capacity)
            return peak

        # The herding dynamics oscillate (overloaded B pushes groups
        # back to throttled A and vice versa), so the paper's claimed
        # damage — "potentially overload one site as entire groups of
        # clients switch to it" — shows as the *peak* per-round load.
        peak_b_baseline = peak_overload(baseline)
        peak_b_attacked = peak_overload(attacked)
        qoe_baseline = _mean_tail_qoe(baseline)
        qoe_attacked = _mean_tail_qoe(attacked)
        return AttackResult(
            attack_name=self.name,
            success=peak_b_attacked > 1.2 and qoe_attacked < qoe_baseline - 5.0,
            time_to_success=None,
            magnitude=peak_b_attacked,
            details={
                "share_b_baseline": share_b_baseline,
                "share_b_attacked": share_b_attacked,
                "peak_overload_baseline": peak_b_baseline,
                "peak_overload_attacked": peak_b_attacked,
                "benign_qoe_baseline": qoe_baseline,
                "benign_qoe_attacked": qoe_attacked,
                "sessions_throttled": (
                    attacked.throttler.sessions_throttled if attacked.throttler else 0
                ),
            },
        )


def _mean_tail_qoe(simulation: PytheasSimulation, tail_rounds: int = 20) -> float:
    values = []
    for group_id in simulation.benign_qoe_series:
        values.append(simulation.benign_qoe_tail_mean(group_id, tail_rounds))
    return sum(values) / len(values) if values else 0.0


def vars_of(site: CdnSite) -> Dict[str, object]:
    """Copyable constructor kwargs of a CdnSite (fresh load state)."""
    return {
        "name": site.name,
        "base_qoe": site.base_qoe,
        "capacity": site.capacity,
        "overload_penalty": site.overload_penalty,
        "noise_std": site.noise_std,
    }
