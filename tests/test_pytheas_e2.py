"""Tests for the exploration–exploitation engines."""

import math
import random

import pytest

from repro.core.errors import ConfigurationError
from repro.pytheas.e2 import DiscountedUcb, EpsilonGreedy


class TestDiscountedUcb:
    def test_explores_every_arm_first(self):
        bandit = DiscountedUcb(["a", "b", "c"], seed=0)
        chosen = set()
        for _ in range(3):
            arm = bandit.choose()
            chosen.add(arm)
            bandit.update(arm, 1.0)
        assert chosen == {"a", "b", "c"}

    def test_converges_to_better_arm(self):
        bandit = DiscountedUcb(["good", "bad"], exploration=2.0, seed=1)
        for _ in range(300):
            arm = bandit.choose()
            bandit.update(arm, 80.0 if arm == "good" else 40.0)
        assert bandit.best_mean_arm() == "good"
        picks = [bandit.choose() for _ in range(20)]
        assert picks.count("good") >= 15

    def test_discount_forgets_the_past(self):
        bandit = DiscountedUcb(["a", "b"], gamma=0.9, exploration=0.0, seed=2)
        for _ in range(50):
            bandit.update("a", 90.0)
            bandit.update("b", 10.0)
        # Environment flips; the discounted stats should track it fast.
        for _ in range(50):
            bandit.update("a", 10.0)
            bandit.update("b", 90.0)
        assert bandit.best_mean_arm() == "b"

    def test_poisoning_shifts_preference(self):
        """The core Pytheas vulnerability at bandit level: a burst of
        fake low rewards flips the best arm."""
        bandit = DiscountedUcb(["a", "b"], gamma=0.99, exploration=0.0, seed=3)
        for _ in range(100):
            bandit.update("a", 80.0)
            bandit.update("b", 74.0)
        assert bandit.best_mean_arm() == "a"
        for _ in range(40):
            bandit.update("a", 1.0)  # adversarial reports
        assert bandit.best_mean_arm() == "b"

    def test_update_unknown_arm_rejected(self):
        with pytest.raises(ConfigurationError):
            DiscountedUcb(["a"]).update("ghost", 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiscountedUcb([])
        with pytest.raises(ConfigurationError):
            DiscountedUcb(["a"], gamma=0.0)
        with pytest.raises(ConfigurationError):
            DiscountedUcb(["a"], exploration=-1.0)

    def test_update_batch(self):
        bandit = DiscountedUcb(["a", "b"], seed=4)
        bandit.update_batch({"a": [50.0, 60.0], "b": [10.0]})
        assert bandit.means()["a"] > bandit.means()["b"]


def _ucb_argmax(bandit):
    """The discounted-UCB arm computed from the arm statistics alone."""
    total = sum(stats.weight for stats in bandit.arms.values())
    log_total = math.log(max(total, math.e))
    return max(
        bandit.arms,
        key=lambda arm: bandit.arms[arm].mean()
        + bandit.exploration * math.sqrt(log_total / bandit.arms[arm].weight),
    )


class TestChooseMemo:
    """choose() keeps its answer between updates; it must be the answer a
    fresh computation gives, and draw exactly as an uncached one."""

    def test_choose_after_update_recomputes(self):
        bandit = DiscountedUcb(["a", "b", "c"], gamma=0.9, exploration=2.0, seed=5)
        for arm in ("a", "b", "c"):
            bandit.update(arm, 50.0)
        rewards = random.Random(7)
        seen = set()
        for _ in range(200):
            picks = {bandit.choose() for _ in range(3)}
            assert picks == {_ucb_argmax(bandit)}
            seen |= picks
            # Rewards far apart, so the argmax moves between arms.
            arm = rewards.choice(sorted(bandit.arms))
            bandit.update(arm, rewards.choice([0.0, 100.0]))
        assert seen == {"a", "b", "c"}

    def test_unexplored_arms_draw_on_every_call(self):
        bandit = DiscountedUcb(["a", "b", "c"], seed=9)
        bandit.update("a", 10.0)
        reference = random.Random(9)
        picks = [bandit.choose() for _ in range(25)]
        assert picks == [reference.choice(["b", "c"]) for _ in range(25)]
        assert bandit._rng.getstate() == reference.getstate()
        # Exploring the rest ends the draws.
        bandit.update("b", 10.0)
        bandit.update("c", 10.0)
        for _ in range(5):
            assert bandit.choose() == _ucb_argmax(bandit)
        assert bandit._rng.getstate() == reference.getstate()


class TestEpsilonGreedy:
    def test_mostly_exploits(self):
        bandit = EpsilonGreedy(["good", "bad"], epsilon=0.1, seed=5)
        bandit.update("good", 90.0)
        bandit.update("bad", 10.0)
        picks = [bandit.choose() for _ in range(200)]
        assert picks.count("good") > 150

    def test_epsilon_validation(self):
        with pytest.raises(ConfigurationError):
            EpsilonGreedy(["a"], epsilon=1.5)

    def test_also_poisonable(self):
        bandit = EpsilonGreedy(["a", "b"], epsilon=0.0, gamma=0.99, seed=6)
        for _ in range(100):
            bandit.update("a", 80.0)
            bandit.update("b", 74.0)
        for _ in range(40):
            bandit.update("a", 1.0)
        assert bandit.best_mean_arm() == "b"
