"""Group-level exploration–exploitation (E2) engine.

Pytheas runs a bandit per group: each decision (CDN, bitrate profile,
...) is an arm; QoE reports are rewards.  Because network conditions
drift, Pytheas uses a *discounted* upper-confidence-bound strategy —
old rewards decay so the system keeps re-exploring.  That freshness is
exactly what the poisoning attack leverages: a burst of fake low-QoE
reports quickly dominates the discounted statistics of the currently
best arm.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ConfigurationError


@dataclass
class ArmStats:
    """Discounted sufficient statistics of one arm."""

    weight: float = 0.0  # discounted pull count
    reward_sum: float = 0.0  # discounted reward sum

    def mean(self) -> float:
        if self.weight <= 0:
            return 0.0
        return self.reward_sum / self.weight


class DiscountedUcb:
    """Discounted UCB1 over a fixed arm set.

    ``choose`` returns the arm maximising ``mean + c·sqrt(log W / w)``
    where W is the total discounted weight; unexplored arms go first.
    ``update`` applies the discount ``gamma`` to every arm, then adds
    the new reward — so a batch of adversarial reports both boosts the
    lie and fades the truth.

    Once every arm is explored, ``choose`` draws nothing and reads only
    the arm statistics, so its answer is kept until the next ``update``
    (the only writer of :attr:`arms`).
    """

    def __init__(
        self,
        arms: Sequence[str],
        gamma: float = 0.995,
        exploration: float = 8.0,
        seed: int = 0,
    ):
        if not arms:
            raise ConfigurationError("need at least one arm")
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError("gamma must be in (0, 1]")
        if exploration < 0:
            raise ConfigurationError("exploration must be non-negative")
        self.arms: Dict[str, ArmStats] = {arm: ArmStats() for arm in arms}
        self.gamma = gamma
        self.exploration = exploration
        self._rng = random.Random(seed)
        self._best: Optional[str] = None

    def choose(self) -> str:
        if self._best is not None:
            return self._best
        unexplored = [arm for arm, stats in self.arms.items() if stats.weight == 0.0]
        if unexplored:
            return self._rng.choice(unexplored)
        total_weight = sum(stats.weight for stats in self.arms.values())
        log_total = math.log(max(total_weight, math.e))

        def score(item) -> float:
            _, stats = item
            bonus = self.exploration * math.sqrt(log_total / stats.weight)
            return stats.mean() + bonus

        best_arm, _ = max(self.arms.items(), key=score)
        self._best = best_arm
        return best_arm

    def update(self, arm: str, reward: float) -> None:
        if arm not in self.arms:
            raise ConfigurationError(f"unknown arm {arm!r}")
        self._best = None
        for stats in self.arms.values():
            stats.weight *= self.gamma
            stats.reward_sum *= self.gamma
        stats = self.arms[arm]
        stats.weight += 1.0
        stats.reward_sum += reward

    def update_batch(self, rewards: Dict[str, List[float]]) -> None:
        """Apply a round of reports (Pytheas frontends batch updates)."""
        for arm, values in rewards.items():
            for value in values:
                self.update(arm, value)

    def best_mean_arm(self) -> str:
        return max(self.arms.items(), key=lambda item: item[1].mean())[0]

    def means(self) -> Dict[str, float]:
        return {arm: stats.mean() for arm, stats in self.arms.items()}


class EpsilonGreedy:
    """Simpler E2 baseline (Pytheas' paper also evaluates one).

    Kept for the ablation bench: the poisoning attack works against any
    report-driven strategy; showing it on two strategies demonstrates
    the attack targets the *signal*, not the algorithm.
    """

    def __init__(
        self,
        arms: Sequence[str],
        epsilon: float = 0.05,
        gamma: float = 0.995,
        seed: int = 0,
    ):
        if not arms:
            raise ConfigurationError("need at least one arm")
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        self.arms: Dict[str, ArmStats] = {arm: ArmStats() for arm in arms}
        self.epsilon = epsilon
        self.gamma = gamma
        self._rng = random.Random(seed)

    def choose(self) -> str:
        unexplored = [arm for arm, stats in self.arms.items() if stats.weight == 0.0]
        if unexplored:
            return self._rng.choice(unexplored)
        if self._rng.random() < self.epsilon:
            return self._rng.choice(list(self.arms))
        return max(self.arms.items(), key=lambda item: item[1].mean())[0]

    def update(self, arm: str, reward: float) -> None:
        if arm not in self.arms:
            raise ConfigurationError(f"unknown arm {arm!r}")
        for stats in self.arms.values():
            stats.weight *= self.gamma
            stats.reward_sum *= self.gamma
        stats = self.arms[arm]
        stats.weight += 1.0
        stats.reward_sum += reward

    def best_mean_arm(self) -> str:
        return max(self.arms.items(), key=lambda item: item[1].mean())[0]

    def means(self) -> Dict[str, float]:
        return {arm: stats.mean() for arm, stats in self.arms.items()}
