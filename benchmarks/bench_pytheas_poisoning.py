"""E5: Pytheas report poisoning — lying-client fraction vs group damage.

Paper (Section 4.1): "if multiple clients within a group report
manipulated QoE measurements, this can drive decisions for other
clients. ... a botnet can pollute measurements for a group of clients
... such that the system lowers video quality for all clients in the
group. ... both of these attacks require tampering with only a small
fraction of traffic to cause disproportionate damage, by exploiting
the group-based decision logic."

Sweeps the attacker fraction and, as the design-choice ablation from
DESIGN.md §6, the grouping granularity (coarser groups = bigger blast
radius per lying client).
"""

from conftest import banner, run_once

from repro.analysis import ascii_table
from repro.attacks import PytheasPoisoningAttack
from repro.pytheas import (
    CdnSite,
    GroupPopulation,
    PytheasController,
    PytheasSimulation,
    QoEModel,
    Session,
    SessionFeatures,
    TargetedLiar,
)

FRACTIONS = (0.0, 0.02, 0.05, 0.10, 0.15, 0.25)


def _sweep():
    attack = PytheasPoisoningAttack()
    results = {}
    for fraction in FRACTIONS:
        results[fraction] = attack.run(
            attacker_fraction=fraction, rounds=100, sessions_per_round=100, seed=0
        )
    return results


def _granularity_ablation():
    """Same lying population, two grouping granularities.

    With per-(asn, location) groups, liars in AS 3303 only hurt their
    own group; with location-only groups, the same liars poison the
    merged group containing AS 64496's (entirely honest) clients too.
    """
    outcomes = {}
    for granularity in (("asn", "location"), ("location",)):
        model = QoEModel(
            [
                CdnSite("cdn-A", base_qoe=80.0, capacity=10_000, noise_std=4.0),
                CdnSite("cdn-B", base_qoe=74.0, capacity=10_000, noise_std=4.0),
            ],
            seed=1,
        )
        controller = PytheasController(
            ["cdn-A", "cdn-B"], granularity=granularity, seed=2
        )
        attacked_pop = GroupPopulation(
            features=SessionFeatures(asn=3303, location="zrh"),
            sessions_per_round=60,
            attacker_fraction=0.25,
            attacker_strategy=TargetedLiar("cdn-A"),
        )
        honest_pop = GroupPopulation(
            features=SessionFeatures(asn=64496, location="zrh"),
            sessions_per_round=60,
        )
        simulation = PytheasSimulation(controller, model, [attacked_pop, honest_pop])
        simulation.run(100)
        honest_group = controller.groups.assign(
            Session(SessionFeatures(asn=64496, location="zrh"))
        )
        outcomes[granularity] = {
            "groups": len(controller.groups),
            "honest_group_preference": controller.preferred_decision(honest_group),
        }
    return outcomes


def test_poisoning_sweep(benchmark):
    results = run_once(benchmark, _sweep)

    banner("E5 — Pytheas poisoning: attacker fraction vs group-wide QoE")
    rows = []
    for fraction, result in results.items():
        rows.append(
            {
                "attacker fraction": f"{fraction:.0%}",
                "benign QoE": round(result.details["attacked_benign_qoe"], 1),
                "QoE loss": round(result.details["qoe_loss"], 1),
                "group flipped": result.details["group_flipped"],
                "victims per attacker": round(result.details["victims_per_attacker"], 1)
                if fraction
                else "-",
            }
        )
    print(ascii_table(rows, title="Poisoning sweep (paper: small fraction, disproportionate damage)"))

    # Shape: tiny fractions are harmless, a minority (<= 25%) flips the
    # whole group, and each attacker session damages several victims.
    assert not results[0.02].details["group_flipped"]
    flipped = [f for f in FRACTIONS if results[f].details["group_flipped"]]
    assert flipped and min(flipped) <= 0.25
    tipping = min(flipped)
    assert results[tipping].details["victims_per_attacker"] > 1.0

    benchmark.extra_info.update(
        {
            "tipping_fraction": tipping,
            "qoe_loss_at_tipping": results[tipping].details["qoe_loss"],
            "victims_per_attacker": results[tipping].details["victims_per_attacker"],
        }
    )


def test_grouping_granularity_ablation(benchmark):
    outcomes = run_once(benchmark, _granularity_ablation)

    banner("E5b — grouping granularity ablation")
    rows = [
        {
            "granularity": "+".join(granularity),
            "groups formed": data["groups"],
            "honest AS's preferred CDN": data["honest_group_preference"],
        }
        for granularity, data in outcomes.items()
    ]
    print(ascii_table(rows, title="Coarser groups widen the poisoning blast radius"))

    fine = outcomes[("asn", "location")]
    coarse = outcomes[("location",)]
    assert fine["groups"] == 2
    assert coarse["groups"] == 1
    # Fine granularity shields the honest AS; coarse drags it down.
    assert fine["honest_group_preference"] == "cdn-A"
    assert coarse["honest_group_preference"] == "cdn-B"

    benchmark.extra_info.update(
        {
            "fine_preference": fine["honest_group_preference"],
            "coarse_preference": coarse["honest_group_preference"],
        }
    )
