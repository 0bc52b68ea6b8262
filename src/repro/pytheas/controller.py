"""The Pytheas controller: per-group E2 fed by (untrusted) QoE reports.

Implements the control loop the HotNets paper attacks: sessions ask for
a decision, the group's bandit answers, clients report QoE back, the
bandit updates.  An optional *report filter* hook is where the
Section 5 defense (group-distribution outlier filtering) plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.entities import Signal, SignalKind
from repro.core.errors import ConfigurationError
from repro.core.system import DataDrivenSystem, Decision, SystemState
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.pytheas.e2 import DiscountedUcb
from repro.pytheas.session import GroupTable, QoEReport, Session

#: A report filter takes (group_id, reports-of-this-round) and returns
#: the reports to actually feed into the bandit.
ReportFilter = Callable[[str, List[QoEReport]], List[QoEReport]]


@dataclass
class GroupState:
    """Per-group E2 engine + bookkeeping."""

    bandit: DiscountedUcb
    sessions_served: int = 0
    reports_received: int = 0
    reports_filtered: int = 0


class PytheasController(DataDrivenSystem):
    """Group-granularity QoE optimiser.

    Also implements :class:`~repro.core.DataDrivenSystem`: ``qoe.report``
    signals carry a :class:`QoEReport`, and decisions are emitted when
    a group's preferred arm changes (the externally visible "steering"
    action a supervisor would audit).
    """

    name = "pytheas"

    def __init__(
        self,
        decisions: Sequence[str],
        granularity: Sequence[str] = ("asn", "location"),
        gamma: float = 0.995,
        exploration: float = 8.0,
        report_filter: Optional[ReportFilter] = None,
        seed: int = 0,
    ):
        if not decisions:
            raise ConfigurationError("need at least one decision")
        self.decision_names = list(decisions)
        self.groups = GroupTable(granularity)
        self.gamma = gamma
        self.exploration = exploration
        self.report_filter = report_filter
        self._seed = seed
        self._state: Dict[str, GroupState] = {}
        self._preferred: Dict[str, str] = {}
        self._now = 0.0
        self.decisions_log: List[Decision] = []

    def _publish_metrics(self) -> None:
        """Write the controller's roll-up as gauges on the active
        registry (nothing when metrics are off)."""
        registry = obs_metrics.current()
        if registry is None:
            return
        gauges = {
            "pytheas.groups": len(self._state),
            "pytheas.sessions_served": sum(
                state.sessions_served for state in self._state.values()
            ),
            "pytheas.reports_received": sum(
                state.reports_received for state in self._state.values()
            ),
            "pytheas.reports_filtered": sum(
                state.reports_filtered for state in self._state.values()
            ),
            "pytheas.preference_changes": len(self.decisions_log),
        }
        for name, value in gauges.items():
            registry.gauge_set(name, value)

    # -- serving sessions ------------------------------------------------------

    def _group_state(self, group_id: str) -> GroupState:
        if group_id not in self._state:
            self._state[group_id] = GroupState(
                bandit=DiscountedUcb(
                    self.decision_names,
                    gamma=self.gamma,
                    exploration=self.exploration,
                    seed=self._seed + len(self._state),
                )
            )
        return self._state[group_id]

    def serve(self, session: Session) -> str:
        """Assign a decision to a session (frontend fast path)."""
        group_id = self.groups.assign(session)
        state = self._group_state(group_id)
        decision = state.bandit.choose()
        session.decision = decision
        state.sessions_served += 1
        return decision

    # -- ingesting reports ---------------------------------------------------------

    def ingest_reports(self, reports: List[QoEReport]) -> None:
        """Apply one round of QoE reports (grouped, filtered, batched)."""
        by_group: Dict[str, List[QoEReport]] = {}
        for report in reports:
            by_group.setdefault(report.group_id, []).append(report)
        filtered_total = 0
        for group_id, group_reports in by_group.items():
            state = self._group_state(group_id)
            state.reports_received += len(group_reports)
            if self.report_filter is not None:
                kept = self.report_filter(group_id, group_reports)
                state.reports_filtered += len(group_reports) - len(kept)
                filtered_total += len(group_reports) - len(kept)
                group_reports = kept
            for report in group_reports:
                state.bandit.update(report.decision, report.value)
            self._emit_preference_change(group_id, state)
        if obs.enabled():
            obs.emit(
                "pytheas.ingest",
                t_sim=self._now,
                reports=len(reports),
                groups=len(by_group),
                filtered=filtered_total,
            )
        self._publish_metrics()

    def _emit_preference_change(self, group_id: str, state: GroupState) -> None:
        best = state.bandit.best_mean_arm()
        previous = self._preferred.get(group_id)
        if previous != best:
            self._preferred[group_id] = best
            self.decisions_log.append(
                Decision(
                    action="prefer-decision",
                    subject=group_id,
                    value=best,
                    time=self._now,
                )
            )
            if obs.enabled():
                obs.emit(
                    "pytheas.preference_change",
                    t_sim=self._now,
                    group=group_id,
                    previous=previous,
                    best=best,
                )

    # -- DataDrivenSystem interface --------------------------------------------------

    def observe(self, signal: Signal) -> List[Decision]:
        if signal.name != "qoe.report":
            return []
        report = signal.value
        if not isinstance(report, QoEReport):
            raise ConfigurationError("qoe.report signal must carry a QoEReport")
        self._now = signal.time
        before = len(self.decisions_log)
        self.ingest_reports([report])
        return self.decisions_log[before:]

    def state(self) -> SystemState:
        per_group = {
            group_id: state.bandit.means() for group_id, state in self._state.items()
        }
        return SystemState(
            time=self._now,
            variables={
                "groups": len(self._state),
                "preferred": dict(self._preferred),
                "group_means": per_group,
            },
        )

    def reset(self) -> None:
        self._state.clear()
        self._preferred.clear()
        self.decisions_log.clear()
        self._now = 0.0

    # -- queries -----------------------------------------------------------------------

    def preferred_decision(self, group_id: str) -> Optional[str]:
        return self._preferred.get(group_id)

    def group_means(self, group_id: str) -> Dict[str, float]:
        return self._group_state(group_id).bandit.means()
