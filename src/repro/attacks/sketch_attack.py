"""Polluting probabilistic monitoring structures (Section 3.2).

"An attacker can pollute, or even saturate a bloom filter, resulting
in inaccurate network statistics."  Concretely:

* :class:`BloomSaturationAttack` — blast enough crafted keys into a
  bloom filter dimensioned for the average case to drive its
  false-positive rate toward 1;
* :class:`FlowRadarOverloadAttack` — spray spoofed flows until the
  encoded flowset's peeling decoder stalls, destroying per-flow
  visibility for legitimate traffic;
* :class:`LossRadarPollutionAttack` — inject packets that cross only
  one meter of a LossRadar segment so the difference digest overflows
  and real losses can no longer be located.
"""

from __future__ import annotations

from typing import List

from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.flows.flow import FiveTuple
from repro.sketches.bloom import BloomFilter
from repro.sketches.flowradar import FlowRadar
from repro.sketches.lossradar import LossRadarSegment, PacketId


def synthetic_flows(count: int, subnet: int, dst: str = "198.51.100.1") -> List[FiveTuple]:
    """Distinct crafted 5-tuples (spoofed sources need HOST privilege only)."""
    return [
        FiveTuple(
            src=f"203.{subnet}.{i // 250}.{i % 250 + 1}",
            dst=dst,
            src_port=1024 + (i % 60000),
            dst_port=443,
        )
        for i in range(count)
    ]


class BloomSaturationAttack(Attack):
    """Saturate a bloom filter; measure the false-positive explosion."""

    name = "bloom-saturation"
    required_privilege = Privilege.HOST
    target = Target.INFRASTRUCTURE
    required_capabilities = (Capability.INJECT_FROM_HOST,)
    impacts = (Impact.PERFORMANCE, Impact.SITUATIONAL_AWARENESS)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        design_capacity = int(params.get("design_capacity", 10_000))
        attack_multiplier = float(params.get("attack_multiplier", 4.0))
        target_fpr = float(params.get("target_fpr", 0.01))

        bloom = BloomFilter.for_capacity(design_capacity, target_fpr)
        legitimate = synthetic_flows(design_capacity, subnet=1)
        bloom.add_all(flow.packed() for flow in legitimate)
        fpr_before = bloom.measured_false_positive_rate(
            flow.packed() for flow in synthetic_flows(2000, subnet=9)
        )
        attack = synthetic_flows(int(design_capacity * attack_multiplier), subnet=2)
        bloom.add_all(flow.packed() for flow in attack)
        fpr_after = bloom.measured_false_positive_rate(
            flow.packed() for flow in synthetic_flows(2000, subnet=8)
        )
        return AttackResult(
            attack_name=self.name,
            success=fpr_after > 10 * max(fpr_before, 1e-4),
            magnitude=fpr_after,
            details={
                "design_capacity": design_capacity,
                "attack_multiplier": attack_multiplier,
                "fpr_before": fpr_before,
                "fpr_after": fpr_after,
                "fill_factor_after": bloom.fill_factor,
            },
        )


class FlowRadarOverloadAttack(Attack):
    """Push the encoded flowset past its peeling threshold."""

    name = "flowradar-overload"
    required_privilege = Privilege.HOST
    target = Target.INFRASTRUCTURE
    required_capabilities = (Capability.INJECT_FROM_HOST,)
    impacts = (Impact.SITUATIONAL_AWARENESS, Impact.BROKEN_DEBUGGING)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        design_capacity = int(params.get("design_capacity", 5_000))
        attack_multiplier = float(params.get("attack_multiplier", 1.5))
        legitimate_flows = int(params.get("legitimate_flows", design_capacity))

        baseline = FlowRadar.for_capacity(design_capacity)
        legit = synthetic_flows(legitimate_flows, subnet=1)
        baseline.observe_trace((flow, 3) for flow in legit)
        success_before = baseline.decode_success_rate()

        attacked = FlowRadar.for_capacity(design_capacity)
        attacked.observe_trace((flow, 3) for flow in legit)
        attacked.observe_trace(
            (flow, 1)
            for flow in synthetic_flows(int(design_capacity * attack_multiplier), subnet=2)
        )
        success_after = attacked.decode_success_rate()
        return AttackResult(
            attack_name=self.name,
            success=success_after < 0.5 * success_before,
            magnitude=success_before - success_after,
            details={
                "design_capacity": design_capacity,
                "attack_multiplier": attack_multiplier,
                "decode_success_before": success_before,
                "decode_success_after": success_after,
                "load_factor_before": baseline.load_factor,
                "load_factor_after": attacked.load_factor,
            },
        )


class LossRadarPollutionAttack(Attack):
    """Blind the loss locator with one-meter-only packets."""

    name = "lossradar-pollution"
    required_privilege = Privilege.HOST
    target = Target.INFRASTRUCTURE
    required_capabilities = (Capability.INJECT_FROM_HOST,)
    impacts = (Impact.SITUATIONAL_AWARENESS, Impact.BROKEN_DEBUGGING)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        cells = int(params.get("cells", 2048))
        legit_packets = int(params.get("legit_packets", 20_000))
        true_losses = int(params.get("true_losses", 200))
        attack_packets = int(params.get("attack_packets", 3000))
        flow = FiveTuple("10.0.0.1", "198.51.100.1", 40000, 443)
        attack_flow = FiveTuple("203.0.113.7", "198.51.100.1", 40001, 443)

        def run(attacked: bool) -> dict:
            segment = LossRadarSegment(cells=cells)
            for seq in range(legit_packets):
                segment.transit(PacketId(flow, seq), lost=seq < true_losses)
            if attacked:
                # Packets addressed to expire inside the segment: they
                # enter the upstream meter but never exit.
                for seq in range(attack_packets):
                    segment.inject_upstream_only(PacketId(attack_flow, seq))
            return segment.report()

        before = run(False)
        after = run(True)
        return AttackResult(
            attack_name=self.name,
            success=before["decode_complete"] and not after["decode_complete"],
            magnitude=before["recall"] - after["recall"],
            details={
                "report_before": before,
                "report_after": after,
                "attack_packets": attack_packets,
                "digest_cells": cells,
            },
        )
