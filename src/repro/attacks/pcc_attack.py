"""The PCC utility-equalisation attack (Section 4.2).

"By tracking PCC flows, a MitM attacker can try to ensure that they see
the same utility with both larger and smaller rates. ... Knowing the
utility function, the attacker can drop packets in the +ε and −ε
phases, such that PCC is unable to see a large-enough utility
difference.  PCC then repeats its experiment with increasing ε until a
threshold of 5%.  Thus, the attacker can cause PCC flows to fluctuate
by ±5%, without allowing them to converge."

The attacker below is a faithful MitM: it observes only what crosses
the wire — the per-MI sending rate (measurable in the data plane) and
the natural loss — plus public knowledge of the deployed utility
function (Kerckhoff; works for Allegro and Vivace alike).  Strategy
details are on :class:`UtilityEqualizer`; in short, it injects exactly
enough loss per MI to pin every observed utility to a tent-shaped cap
whose up-experiment values are interleaved, so no rate experiment ever
comes out consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.attack import Attack, AttackResult
from repro.core.errors import ConfigurationError
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.pcc.controller import ControlState
from repro.pcc.simulator import PathModel, PccSimulation
from repro.pcc.utility import allegro_utility, invert_utility


@dataclass
class _FlowAnchor:
    """Per-flow state: the utility ceiling the attacker enforces."""

    floor_rate: float = 0.0
    anchor_rate: float = 0.0
    target_utility: float = 0.0
    rate_ewma: float = 0.0
    up_parity: int = 0
    #: Tent slope and up-experiment jitter, scaled to the utility's
    #: range so the scheme works for any monotone utility function.
    slope: float = 0.0
    jitter: float = 0.0
    #: Original anchor rate (set by OscillatingEqualizer on first sway).
    static_anchor: Optional[float] = None


class UtilityEqualizer:
    """:class:`~repro.pcc.simulator.MiTamper` implementing the attack.

    Strategy: when the attack engages, the attacker *anchors* each flow
    at its current rate and from then on injects, per MI, exactly the
    loss that makes the flow's observed utility equal a tent-shaped
    target peaked at the anchor:

    * at the anchor, the +ε and −ε experiment MIs are symmetric, so
      their tent values are equal — but PCC would occasionally commit a
      direction on float-level ties, so the attacker additionally
      *interleaves* the up-experiments (alternating a hair above/below
      the down-utility).  Every RCT therefore contains both a winning
      and a losing up-MI: never consistent, ε escalates to its 5 % cap
      and stays there;
    * away from the anchor the tent slopes down, so any drift looks
      strictly worse in that direction and PCC is pulled back.

    The result is the paper's outcome verbatim: the rate oscillates
    ±5 % around the anchor forever and cannot converge to the true
    capacity.  The attacker uses only on-the-wire observables (per-MI
    rate and natural loss, with up/down experiments classified against
    a rate EWMA) plus public knowledge of the utility function
    (Kerckhoff's principle).
    """

    def __init__(
        self,
        attack_start_time: float = 0.0,
        floor_factor: float = 0.94,
        margin: float = 0.0,
        utility_fn=None,
        anchor_factor: float = 1.0,
    ):
        if not 0.0 < floor_factor < 1.0:
            raise ConfigurationError(f"floor_factor must be in (0,1): {floor_factor}")
        if not 0.0 < anchor_factor <= 1.0:
            raise ConfigurationError(f"anchor_factor must be in (0,1]: {anchor_factor}")
        self.attack_start_time = attack_start_time
        self.floor_factor = floor_factor
        self.margin = margin
        # Kerckhoff: the attacker knows which utility the target runs.
        self.utility_fn = utility_fn or allegro_utility
        # Where to pin the flow relative to its rate at attack start.
        # Values < 1 drag the flow below the bottleneck so natural
        # congestion loss never undercuts the attacker's utility cap
        # (important for loss-heavy utilities like Vivace's).
        self.anchor_factor = anchor_factor
        self._anchors: Dict[int, _FlowAnchor] = {}
        self.interventions = 0

    def tamper(self, flow_id: int, time: float, rate: float, natural_loss: float) -> float:
        if time < self.attack_start_time:
            return natural_loss
        anchor = self._anchors.get(flow_id)
        if anchor is None:
            # Anchor once, relative to the rate observed when the attack
            # engages.  The cap's peak value must stay reachable
            # (utility can only be lowered) across the whole ±25 % band
            # around the anchor, so it is set to the natural utility of
            # 0.75× the anchor; the tent slope and jitter scale with the
            # headroom between the anchor's natural utility and the cap,
            # keeping the scheme utility-function-agnostic.
            anchor_rate = rate * self.anchor_factor
            target = self.utility_fn(0.75 * anchor_rate, 0.0) - self.margin
            headroom = max(1e-6, self.utility_fn(anchor_rate, 0.0) - target)
            anchor = _FlowAnchor(
                floor_rate=anchor_rate * self.floor_factor,
                anchor_rate=anchor_rate,
                target_utility=target,
                slope=2.0 * headroom / anchor_rate,
                jitter=0.01 * headroom,
            )
            self._anchors[flow_id] = anchor
        previous_ewma = anchor.rate_ewma or rate
        anchor.rate_ewma = 0.75 * previous_ewma + 0.25 * rate
        # Tent-shaped utility cap peaked at the anchor: any drift away
        # from the anchor looks strictly worse, so PCC is pulled back;
        # the symmetric ±ε experiments at the anchor see equal values.
        target = anchor.target_utility - anchor.slope * abs(rate - anchor.anchor_rate)
        if rate > previous_ewma * 1.002:
            # A +ε experiment: alternate its utility above/below the
            # tent so the two up-MIs of every RCT straddle the down-MIs
            # — the experiment can never come out consistent, and ε
            # escalates to its 5 % cap.
            anchor.up_parity ^= 1
            target += anchor.jitter if anchor.up_parity else -anchor.jitter
        target = min(target, self.utility_fn(rate, natural_loss))
        needed = invert_utility(self.utility_fn, rate, target)
        if needed > natural_loss + 1e-9:
            self.interventions += 1
            return needed
        return natural_loss


class OscillatingEqualizer(UtilityEqualizer):
    """Attack variant: sway the anchor to steer coherent fluctuations.

    "Not only is PCC's logic neutralized in this setting, it is
    effectively a tool for the attacker to cause disruption at the
    destination."  With the plain equaliser, each flow's ±ε wobble has
    an independent phase and the aggregate partially cancels.  Here the
    attacker moves the tent's peak sinusoidally (same wall-clock phase
    for every flow it intercepts); PCC's gradient-following drags every
    flow's rate after the moving peak, so the fluctuations at the
    destination add *coherently* — amplitude and period of the swings
    are now attacker-chosen.
    """

    def __init__(
        self,
        attack_start_time: float = 0.0,
        sway_amplitude: float = 0.10,
        sway_period: float = 20.0,
        **kwargs: object,
    ):
        super().__init__(attack_start_time=attack_start_time, **kwargs)  # type: ignore[arg-type]
        if not 0.0 < sway_amplitude < 0.5:
            raise ConfigurationError("sway_amplitude must be in (0, 0.5)")
        if sway_period <= 0:
            raise ConfigurationError("sway_period must be positive")
        self.sway_amplitude = sway_amplitude
        self.sway_period = sway_period

    def tamper(self, flow_id: int, time: float, rate: float, natural_loss: float) -> float:
        import math

        if time >= self.attack_start_time and flow_id in self._anchors:
            anchor = self._anchors[flow_id]
            if anchor.static_anchor is None:
                anchor.static_anchor = anchor.anchor_rate
            phase = 2.0 * math.pi * (time - self.attack_start_time) / self.sway_period
            anchor.anchor_rate = anchor.static_anchor * (
                1.0 + self.sway_amplitude * math.sin(phase)
            )
        return super().tamper(flow_id, time, rate, natural_loss)


class PccOscillationAttack(Attack):
    """Run PCC with/without the equaliser; report the oscillation."""

    name = "pcc-utility-equalisation"
    required_privilege = Privilege.MITM
    target = Target.ENDPOINT
    required_capabilities = (Capability.DROP_ON_LINK, Capability.RECORD_ON_LINK)
    impacts = (Impact.PERFORMANCE,)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        flows = int(params.get("flows", 1))
        capacity = float(params.get("capacity", 100.0))
        mis = int(params.get("mis", 800))
        seed = int(params.get("seed", 0))
        tail = int(params.get("tail_mis", 200))
        epsilon_max = float(params.get("epsilon_max", 0.05))
        warmup_mis = int(params.get("warmup_mis", 200))
        # coherent=True uses the oscillating-anchor variant so the
        # per-flow fluctuations add up at the destination.
        coherent = bool(params.get("coherent", False))
        sway_amplitude = float(params.get("sway_amplitude", 0.10))
        sway_period = float(params.get("sway_period", 20.0))

        from repro.faults import coerce_plan

        plan = coerce_plan(
            params.get("faults"), seed=int(params.get("fault_seed", 0))
        )
        telemetry_faults: Dict[str, object] = {}

        def run(tampered: bool) -> PccSimulation:
            probe = PccSimulation(PathModel(capacity=capacity), flows=flows, seed=seed)
            attack_start = warmup_mis * probe.mi_duration
            if not tampered:
                tamper = None
            elif coherent:
                tamper = OscillatingEqualizer(
                    attack_start_time=attack_start,
                    sway_amplitude=sway_amplitude,
                    sway_period=sway_period,
                )
            else:
                tamper = UtilityEqualizer(attack_start_time=attack_start)
            simulation = PccSimulation(
                PathModel(capacity=capacity),
                flows=flows,
                tamper=tamper,
                seed=seed,
                controller_kwargs={"epsilon_max": epsilon_max},
            )
            if plan is not None:
                from repro.faults import TelemetryFault, degrade_pcc

                # Environmental degradation hits baseline and attacked
                # runs alike (the comparison must stay fair); each run
                # gets its own role-derived RNG so both replay exactly.
                variant = "attacked" if tampered else "baseline"
                fault = TelemetryFault(plan, role=f"pcc.telemetry.{variant}")
                degrade_pcc(simulation, fault)
                telemetry_faults[variant] = fault
            simulation.run(mis)
            return simulation

        baseline = run(False)
        attacked = run(True)

        # One read of each flow's tail rates gives both its CV and its
        # amplitude (the values rate_oscillation/rate_amplitude return).
        stats_baseline = baseline.tail_rate_stats(tail)
        stats_attacked = attacked.tail_rate_stats(tail)
        osc_baseline = sum(s["cv"] for s in stats_baseline) / flows
        osc_attacked = sum(s["cv"] for s in stats_attacked) / flows
        amp_attacked = sum(s["amplitude"] for s in stats_attacked) / flows
        decision_frac = sum(
            attacked.time_in_state(f, ControlState.DECISION, tail) for f in range(flows)
        ) / flows
        eps_tail = [
            e for f in range(flows) for e in attacked.epsilon_trace(f)[-50:]
        ]
        pinned = (
            sum(1 for e in eps_tail if abs(e - epsilon_max) < 1e-9) / len(eps_tail)
            if eps_tail
            else 0.0
        )
        mean_rate_baseline = _tail_mean_rate(baseline, flows, tail)
        mean_rate_attacked = _tail_mean_rate(attacked, flows, tail)

        agg_attacked = attacked.aggregate_rate_stats(tail)
        agg_baseline = baseline.aggregate_rate_stats(tail)

        tamper = attacked.tamper
        assert isinstance(tamper, UtilityEqualizer)
        details_extra: Dict[str, object] = {}
        if plan is not None:
            details_extra["fault_plan"] = plan.to_spec()
            details_extra["fault_seed"] = plan.seed
            attacked_fault = telemetry_faults.get("attacked")
            if attacked_fault is not None:
                details_extra.update(attacked_fault.counters())
        return AttackResult(
            attack_name=self.name,
            success=osc_attacked > 2.0 * max(osc_baseline, 1e-6)
            and decision_frac > 0.9,
            time_to_success=None,
            magnitude=amp_attacked,
            details={
                "oscillation_cv_baseline": osc_baseline,
                "oscillation_cv_attacked": osc_attacked,
                "rate_amplitude_attacked": amp_attacked,
                "fraction_mis_in_decision_attacked": decision_frac,
                "epsilon_pinned_fraction": pinned,
                "mean_rate_baseline": mean_rate_baseline,
                "mean_rate_attacked": mean_rate_attacked,
                "aggregate_oscillation_attacked": agg_attacked["cv"],
                "aggregate_oscillation_baseline": agg_baseline["cv"],
                "aggregate_swing_attacked": agg_attacked["amplitude"],
                "aggregate_swing_baseline": agg_baseline["amplitude"],
                "attack_budget_fraction": attacked.attack_budget_fraction(),
                "interventions": tamper.interventions,
                **details_extra,
            },
        )


def _tail_mean_rate(simulation: PccSimulation, flows: int, tail: int) -> float:
    total = 0.0
    for flow_id in range(flows):
        rates = simulation.flow_rates(flow_id)[-tail:]
        total += sum(rates) / len(rates) if rates else 0.0
    return total / flows
