"""Tests for the round-based Pytheas simulation."""

import pytest

from repro.core.errors import ConfigurationError
from repro.pytheas.controller import PytheasController
from repro.pytheas.qoe import CdnSite, QoEModel
from repro.pytheas.session import SessionFeatures
from repro.pytheas.simulator import (
    GroupPopulation,
    HonestReporter,
    PytheasSimulation,
    TargetedLiar,
    Throttler,
)


def _sites(gap=6.0):
    return [
        CdnSite("cdn-A", base_qoe=80.0, capacity=5000, noise_std=4.0),
        CdnSite("cdn-B", base_qoe=80.0 - gap, capacity=5000, noise_std=4.0),
    ]


def _simulation(attacker_fraction=0.0, rounds=80, throttler=None, seed=0):
    model = QoEModel(_sites(), seed=seed + 1)
    controller = PytheasController(["cdn-A", "cdn-B"], seed=seed + 2)
    population = GroupPopulation(
        features=SessionFeatures(asn=3303, location="zrh"),
        sessions_per_round=100,
        attacker_fraction=attacker_fraction,
        attacker_strategy=TargetedLiar("cdn-A") if attacker_fraction else None,
    )
    simulation = PytheasSimulation(controller, model, [population], throttler=throttler)
    simulation.run(rounds)
    return simulation, controller


class TestBenignBehaviour:
    def test_converges_to_better_cdn(self):
        simulation, controller = _simulation()
        gid = controller.groups.group_ids()[0]
        assert controller.preferred_decision(gid) == "cdn-A"
        assert simulation.decision_share("cdn-A") > 0.6

    def test_benign_qoe_near_best_site(self):
        simulation, controller = _simulation()
        gid = controller.groups.group_ids()[0]
        assert simulation.benign_qoe_tail_mean(gid) > 75.0


class TestPoisoning:
    def test_sufficient_attackers_flip_group(self):
        simulation, controller = _simulation(attacker_fraction=0.15, seed=1)
        gid = controller.groups.group_ids()[0]
        assert controller.preferred_decision(gid) == "cdn-B"
        # Whole group steered to the worse CDN -> benign QoE drops.
        assert simulation.benign_qoe_tail_mean(gid) < 77.0

    def test_tiny_attacker_fraction_insufficient(self):
        simulation, controller = _simulation(attacker_fraction=0.01, seed=2)
        gid = controller.groups.group_ids()[0]
        assert controller.preferred_decision(gid) == "cdn-A"


class TestThrottler:
    def test_throttling_degrades_true_qoe(self):
        throttler = Throttler("cdn-A", penalty=50.0)
        simulation, controller = _simulation(throttler=throttler, seed=3)
        gid = controller.groups.group_ids()[0]
        # Throttled A looks terrible -> group herds onto B.
        assert simulation.decision_share("cdn-A", tail_rounds=20) < 0.4
        assert throttler.sessions_throttled > 0

    def test_throttler_scopes_to_decision(self):
        from repro.pytheas.session import Session

        throttler = Throttler("cdn-A", penalty=30.0)
        session = Session(SessionFeatures(asn=1, location="x"))
        session.decision = "cdn-B"
        assert throttler.apply(session, 70.0) == 70.0
        session.decision = "cdn-A"
        assert throttler.apply(session, 70.0) == 40.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Throttler("a", penalty=-1.0)
        with pytest.raises(ConfigurationError):
            Throttler("a", fraction=0.0)


class TestStrategies:
    def test_honest_reporter_truthful(self):
        from repro.pytheas.session import Session

        session = Session(SessionFeatures(asn=1, location="x"))
        assert HonestReporter().report(session, 55.5, 0) == 55.5

    def test_targeted_liar_lies_selectively(self):
        from repro.pytheas.session import Session

        liar = TargetedLiar("cdn-A", low=1.0, high=95.0)
        session = Session(SessionFeatures(asn=1, location="x"))
        session.decision = "cdn-A"
        assert liar.report(session, 80.0, 0) == 1.0
        session.decision = "cdn-B"
        assert liar.report(session, 40.0, 0) == 95.0


class TestValidation:
    def test_population_needs_strategy_for_attackers(self):
        with pytest.raises(ConfigurationError):
            GroupPopulation(
                features=SessionFeatures(asn=1, location="x"),
                attacker_fraction=0.5,
            )

    def test_rounds_positive(self):
        simulation, _ = _simulation(rounds=1)
        with pytest.raises(ConfigurationError):
            simulation.run(0)
