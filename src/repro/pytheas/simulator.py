"""Round-based Pytheas simulation with attacker hooks.

Each round: sessions arrive per group, get decisions from the
controller, experience ground-truth QoE from the :class:`QoEModel`
(capacity feedback included), and report QoE back — except that
attacker-controlled sessions report whatever their strategy dictates,
and a MitM throttle can degrade the *true* QoE of targeted
(group, decision) traffic.  The simulator records the benign clients'
true QoE per round, the quantity the paper's damage claims are about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from repro.core.errors import ConfigurationError
from repro.core.metrics import TimeSeries
from repro.pytheas.controller import PytheasController
from repro.pytheas.qoe import QoEModel
from repro.pytheas.session import QoEReport, Session, SessionFeatures


class ReportStrategy(Protocol):
    """How an attacker-controlled session fabricates its QoE report."""

    def report(self, session: Session, true_qoe: float, round_index: int) -> float:
        ...


class HonestReporter:
    """Benign behaviour: report the truth."""

    def report(self, session: Session, true_qoe: float, round_index: int) -> float:
        return true_qoe


class TargetedLiar:
    """Report terrible QoE when assigned ``target_decision``, great
    otherwise — the optimal poisoning strategy for driving a group off
    the best arm ("a botnet can pollute measurements ... by reporting
    low throughput and poor QoE").
    """

    def __init__(self, target_decision: str, low: float = 1.0, high: float = 95.0):
        self.target_decision = target_decision
        self.low = low
        self.high = high

    def report(self, session: Session, true_qoe: float, round_index: int) -> float:
        if session.decision == self.target_decision:
            return self.low
        return self.high


class Throttler:
    """MitM ground-truth degradation of (group, decision) traffic.

    "MitM attackers can achieve similar outcomes if they drop packets
    for a subset of the group members" / "throttle user flows to/from a
    particular CDN site".  ``penalty`` is subtracted from the true QoE
    of matching sessions.
    """

    def __init__(
        self,
        decision: str,
        penalty: float = 50.0,
        group_id: Optional[str] = None,
        fraction: float = 1.0,
        seed: int = 7,
    ):
        if penalty < 0:
            raise ConfigurationError("penalty must be non-negative")
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        self.decision = decision
        self.penalty = penalty
        self.group_id = group_id
        self.fraction = fraction
        self._rng = random.Random(seed)
        self.sessions_throttled = 0

    def apply(self, session: Session, true_qoe: float) -> float:
        if session.decision != self.decision:
            return true_qoe
        if self.group_id is not None and session.group_id != self.group_id:
            return true_qoe
        if self._rng.random() > self.fraction:
            return true_qoe
        self.sessions_throttled += 1
        return max(0.0, true_qoe - self.penalty)


@dataclass
class GroupPopulation:
    """A client population sharing one group."""

    features: SessionFeatures
    sessions_per_round: int = 50
    attacker_fraction: float = 0.0
    attacker_strategy: Optional[ReportStrategy] = None

    def __post_init__(self) -> None:
        if self.sessions_per_round <= 0:
            raise ConfigurationError("sessions_per_round must be positive")
        if not 0.0 <= self.attacker_fraction <= 1.0:
            raise ConfigurationError("attacker_fraction must be in [0, 1]")
        if self.attacker_fraction > 0 and self.attacker_strategy is None:
            raise ConfigurationError("attackers need a strategy")


@dataclass
class RoundStats:
    """Per-round outcome of one group."""

    round_index: int
    group_id: str
    benign_true_qoe_mean: float
    assignments: Dict[str, int]
    preferred: Optional[str]


class PytheasSimulation:
    """Drive controller + QoE model + populations over rounds."""

    def __init__(
        self,
        controller: PytheasController,
        qoe_model: QoEModel,
        populations: Sequence[GroupPopulation],
        throttler: Optional[Throttler] = None,
    ):
        if not populations:
            raise ConfigurationError("need at least one population")
        self.controller = controller
        self.qoe_model = qoe_model
        self.populations = list(populations)
        self.throttler = throttler
        self.round_stats: List[RoundStats] = []
        self.benign_qoe_series: Dict[str, TimeSeries] = {}
        self._round = 0

    def run(self, rounds: int) -> None:
        if rounds <= 0:
            raise ConfigurationError("rounds must be positive")
        for _ in range(rounds):
            self._run_round()

    def _run_round(self) -> None:
        honest = HonestReporter()
        all_sessions: List[Session] = []
        # 1. Sessions arrive and get decisions.
        for population in self.populations:
            attackers = int(round(population.sessions_per_round * population.attacker_fraction))
            for i in range(population.sessions_per_round):
                session = Session(
                    features=population.features,
                    malicious_ground_truth=i < attackers,
                )
                self.controller.serve(session)
                all_sessions.append(session)
        # 2. Ground truth QoE under the realised load.
        load: Dict[str, int] = {}
        for session in all_sessions:
            assert session.decision is not None
            load[session.decision] = load.get(session.decision, 0) + 1
        self.qoe_model.begin_round(load)
        reports: List[QoEReport] = []
        benign_by_group: Dict[str, List[float]] = {}
        for session in all_sessions:
            assert session.decision is not None and session.group_id is not None
            true_qoe = self.qoe_model.true_qoe(session.group_id, session.decision)
            if self.throttler is not None:
                true_qoe = self.throttler.apply(session, true_qoe)
            session.true_qoe = true_qoe
            strategy: ReportStrategy = honest
            if session.malicious_ground_truth:
                population = self._population_for(session)
                assert population.attacker_strategy is not None
                strategy = population.attacker_strategy
            else:
                benign_by_group.setdefault(session.group_id, []).append(true_qoe)
            session.reported_qoe = strategy.report(session, true_qoe, self._round)
            reports.append(
                QoEReport(
                    session_id=session.session_id,
                    group_id=session.group_id,
                    decision=session.decision,
                    value=session.reported_qoe,
                    time=float(self._round),
                )
            )
        # 3. Reports flow back into the controller.
        self.controller.ingest_reports(reports)
        # 4. Record stats.
        for group_id, values in benign_by_group.items():
            mean_qoe = sum(values) / len(values)
            series = self.benign_qoe_series.setdefault(
                group_id, TimeSeries(f"pytheas.{group_id}.benign_qoe")
            )
            series.record(float(self._round), mean_qoe)
            self.round_stats.append(
                RoundStats(
                    round_index=self._round,
                    group_id=group_id,
                    benign_true_qoe_mean=mean_qoe,
                    assignments=dict(load),
                    preferred=self.controller.preferred_decision(group_id),
                )
            )
        self._round += 1

    def _population_for(self, session: Session) -> GroupPopulation:
        for population in self.populations:
            if population.features is session.features:
                return population
        raise ConfigurationError("session does not belong to any population")

    # -- analysis -------------------------------------------------------------------

    def benign_qoe_tail_mean(self, group_id: str, tail_rounds: int = 20) -> float:
        series = self.benign_qoe_series.get(group_id)
        if series is None or len(series) == 0:
            raise ConfigurationError(f"no data for group {group_id!r}")
        values = list(series.values)[-tail_rounds:]
        return sum(values) / len(values)

    def decision_share(self, decision: str, tail_rounds: int = 20) -> float:
        """Fraction of recent sessions steered to ``decision``."""
        recent = self.round_stats[-tail_rounds:]
        if not recent:
            return 0.0
        assigned = sum(stats.assignments.get(decision, 0) for stats in recent)
        total = sum(sum(stats.assignments.values()) for stats in recent)
        return assigned / total if total else 0.0
