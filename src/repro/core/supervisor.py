"""Driver/supervisor countermeasure framework (Section 5, Fig. 3).

The paper proposes to "extend data-driven systems by external
supervisors, which monitor the systems and prevent them from
misbehaving": a *driver* drives the network while a *supervisor*
determines the directions in which it can move.  Countermeasures can be
applied at five points:

    I   ensuring input quality,
    II  testing and verifying program code,
    III constraining the decision range of the driver,
    IV  invoking supervisor checks, and
    V   obfuscating control logic.

This module implements the runtime half (I, III, IV): plausibility
models that score states/signals, operating-range constraints on
decisions, and a :class:`SupervisedDriver` wrapper supporting both
synchronous (check every decision, pay latency) and asynchronous
(periodic checks, pay detection lag) interaction — the trade-off the
paper poses as a research question.  Per-system instantiations live in
:mod:`repro.defenses`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.entities import Signal
from repro.core.errors import SupervisorVeto
from repro.core.system import DataDrivenSystem, Decision, SystemState
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs


class PlausibilityModel(abc.ABC):
    """A "model which describes normal behavior of a network" (point III).

    Implementations learn from benign observations and score how
    plausible a state/decision is; 0.0 means perfectly normal, 1.0
    means certainly adversarial.
    """

    @abc.abstractmethod
    def risk(self, state: SystemState, decision: Optional[Decision] = None) -> float:
        """Estimate the risk in [0, 1] that the driver is under influence."""

    def observe_benign(self, state: SystemState) -> None:
        """Optionally update the model with a known-benign observation."""


class ThresholdModel(PlausibilityModel):
    """Plausibility model built from named state-variable bounds.

    The simplest useful model: each state variable gets an allowed
    interval; risk is the fraction of bounded variables currently out
    of range.  It doubles as the reference implementation tests exercise
    the supervisor plumbing with.
    """

    def __init__(self, bounds: Optional[Dict[str, Tuple[float, float]]] = None):
        self._bounds: Dict[str, Tuple[float, float]] = dict(bounds or {})

    def set_bound(self, variable: str, low: float, high: float) -> None:
        if low > high:
            raise ValueError(f"bound for {variable!r} has low > high")
        self._bounds[variable] = (low, high)

    def risk(self, state: SystemState, decision: Optional[Decision] = None) -> float:
        if not self._bounds:
            return 0.0
        violations = 0
        for variable, (low, high) in self._bounds.items():
            value = state.get(variable)
            if value is None:
                continue
            if not low <= float(value) <= high:
                violations += 1
        return violations / len(self._bounds)


@dataclass
class OperatingRange:
    """The "allowed operating range" the supervisor hands the driver.

    Constrains which decisions the driver may emit: per-action allowed
    value predicates plus a global rate limit on decisions per time
    window (a data-driven system that suddenly reroutes everything is
    suspicious regardless of each individual decision's plausibility).
    """

    allowed_actions: Optional[List[str]] = None
    value_predicates: Dict[str, Callable[[Decision], bool]] = field(default_factory=dict)
    max_decisions_per_window: Optional[int] = None
    window_seconds: float = 60.0

    def permits(self, decision: Decision, recent_times: List[float]) -> bool:
        """Check ``decision`` against the range.

        ``recent_times`` are the timestamps of previously *allowed*
        decisions; the caller maintains the list.
        """
        if self.allowed_actions is not None and decision.action not in self.allowed_actions:
            return False
        predicate = self.value_predicates.get(decision.action)
        if predicate is not None and not predicate(decision):
            return False
        if self.max_decisions_per_window is not None:
            window_start = decision.time - self.window_seconds
            in_window = sum(1 for t in recent_times if t >= window_start)
            if in_window >= self.max_decisions_per_window:
                return False
        return True


@dataclass
class SupervisionEvent:
    """Audit-log entry for each supervisor intervention."""

    time: float
    kind: str  # "veto", "risk-alarm", "range-violation", "check"
    risk: float
    decision: Optional[Decision] = None
    note: str = ""


#: Graceful-degradation policies: what the supervisor does with driver
#: decisions while its own input stream is implausible or silent.
DEGRADATION_POLICIES = ("fail_open", "fail_closed", "hold_last_safe")


class Supervisor:
    """Combines a plausibility model and an operating range (points III+IV).

    Degradation: a supervisor can only check what it can see.  When the
    telemetry feeding it goes silent or implausible (detected by the
    :class:`SupervisedDriver` or flagged by the fault layer via
    :meth:`enter_degraded`), the ``degradation`` policy governs the
    driver:

    * ``fail_open`` — decisions pass unchecked (availability over
      safety); each pass is audited as ``degraded-pass``.
    * ``fail_closed`` — decisions are suppressed like vetoes (safety
      over availability).
    * ``hold_last_safe`` — the fresh decision is suppressed and the
      last decision the supervisor *approved* is replayed in its place
      (the driver keeps doing the last known-safe thing).

    Every transition and degraded verdict is appended to the audit log
    and mirrored as a ``supervisor.*`` obs event, so a run ledger shows
    exactly when and why the system degraded.
    """

    def __init__(
        self,
        model: PlausibilityModel,
        operating_range: Optional[OperatingRange] = None,
        risk_threshold: float = 0.5,
        degradation: str = "fail_closed",
    ):
        if not 0.0 <= risk_threshold <= 1.0:
            raise ValueError("risk_threshold must be in [0, 1]")
        if degradation not in DEGRADATION_POLICIES:
            raise ValueError(
                f"degradation must be one of {DEGRADATION_POLICIES}, got {degradation!r}"
            )
        self.model = model
        self.operating_range = operating_range or OperatingRange()
        self.risk_threshold = risk_threshold
        self.degradation = degradation
        self.events: List[SupervisionEvent] = []
        self.degraded_since: Optional[float] = None
        self._allowed_times: List[float] = []
        self._last_safe: Optional[Decision] = None

    def _audit(self, kind: str, risk: float, decision: Optional[Decision], note: str) -> None:
        """Mirror one supervision verdict into the observability trail.

        The in-memory :attr:`events` list is the programmatic record;
        the emitted trace event is what makes a defended run replayable
        from its ledger alone.
        """
        # Verdict counters are independent of tracing: metrics may be
        # on while the (heavier) event trail is off.
        obs_metrics.inc(f"supervisor.verdicts.{kind.replace('-', '_')}")
        if not obs.enabled():
            return
        obs.emit(
            f"supervisor.{kind.replace('-', '_')}",
            t_sim=decision.time if decision is not None else None,
            risk=risk,
            action=decision.action if decision is not None else None,
            subject=str(decision.subject) if decision is not None else None,
            value=decision.value if decision is not None else None,
            note=note,
        )

    def check_decision(self, state: SystemState, decision: Decision) -> bool:
        """Return True if the decision may proceed; log otherwise."""
        risk = self.model.risk(state, decision)
        if risk >= self.risk_threshold:
            self.events.append(
                SupervisionEvent(decision.time, "veto", risk, decision, "risk above threshold")
            )
            self._audit("veto", risk, decision, "risk above threshold")
            return False
        if not self.operating_range.permits(decision, self._allowed_times):
            self.events.append(
                SupervisionEvent(
                    decision.time, "range-violation", risk, decision, "outside operating range"
                )
            )
            self._audit("range-violation", risk, decision, "outside operating range")
            return False
        self._allowed_times.append(decision.time)
        self._last_safe = decision
        self.events.append(SupervisionEvent(decision.time, "check", risk, decision, "allowed"))
        self._audit("check", risk, decision, "allowed")
        return True

    # -- graceful degradation ----------------------------------------------

    @property
    def is_degraded(self) -> bool:
        return self.degraded_since is not None

    @property
    def last_safe_decision(self) -> Optional[Decision]:
        """The most recent decision this supervisor approved, if any."""
        return self._last_safe

    def enter_degraded(self, time: float, reason: str = "") -> None:
        """Flag the input stream as implausible or silent; idempotent."""
        if self.is_degraded:
            return
        self.degraded_since = time
        self.events.append(
            SupervisionEvent(time, "degraded-enter", 1.0, None, reason)
        )
        obs_metrics.inc("supervisor.degraded_enters")
        if obs.enabled():
            obs.emit(
                "supervisor.degraded_enter",
                t_sim=time,
                policy=self.degradation,
                reason=reason,
            )

    def exit_degraded(self, time: float, reason: str = "") -> None:
        """Telemetry is trustworthy again; idempotent."""
        if not self.is_degraded:
            return
        since = self.degraded_since
        self.degraded_since = None
        self.events.append(SupervisionEvent(time, "degraded-exit", 0.0, None, reason))
        obs_metrics.inc("supervisor.degraded_exits")
        if obs.enabled():
            obs.emit(
                "supervisor.degraded_exit",
                t_sim=time,
                policy=self.degradation,
                degraded_for=time - since if since is not None else None,
                reason=reason,
            )

    def degraded_decision(self, decision: Decision) -> Optional[Decision]:
        """Apply the degradation policy to one decision.

        Returns the decision to release (the original, a replay of the
        last safe one, or None to suppress), and audits accordingly:
        suppressions land in :attr:`vetoes` like ordinary vetoes.
        """
        if self.degradation == "fail_open":
            self.events.append(
                SupervisionEvent(
                    decision.time, "degraded-pass", 1.0, decision, "fail_open"
                )
            )
            self._audit("degraded-pass", 1.0, decision, "fail_open")
            return decision
        # Both remaining policies suppress the fresh (unverifiable)
        # decision; hold_last_safe additionally substitutes a replay.
        note = f"degraded: {self.degradation}"
        self.events.append(SupervisionEvent(decision.time, "veto", 1.0, decision, note))
        self._audit("veto", 1.0, decision, note)
        if self.degradation == "fail_closed" or self._last_safe is None:
            return None
        replay = Decision(
            action=self._last_safe.action,
            subject=self._last_safe.subject,
            value=self._last_safe.value,
            time=decision.time,
            confidence=self._last_safe.confidence,
        )
        self.events.append(
            SupervisionEvent(decision.time, "degraded-hold", 1.0, replay, "hold_last_safe")
        )
        self._audit("degraded-hold", 1.0, replay, "hold_last_safe")
        return replay

    def check_state(self, state: SystemState) -> float:
        """Asynchronous health check; returns the risk and logs alarms."""
        risk = self.model.risk(state)
        if risk >= self.risk_threshold:
            self.events.append(SupervisionEvent(state.time, "risk-alarm", risk, None, ""))
            obs_metrics.inc("supervisor.risk_alarms")
            obs.emit("supervisor.risk_alarm", t_sim=state.time, risk=risk)
        return risk

    @property
    def vetoes(self) -> List[SupervisionEvent]:
        return [e for e in self.events if e.kind in ("veto", "range-violation")]

    @property
    def alarms(self) -> List[SupervisionEvent]:
        return [e for e in self.events if e.kind == "risk-alarm"]


class SupervisedDriver(DataDrivenSystem):
    """Wrap a driver with a supervisor (Fig. 3 of the paper).

    Modes:

    * ``synchronous=True`` — every decision is checked before being
      released; vetoed decisions are suppressed (or raised, if
      ``raise_on_veto``).  This is the safe-but-slow regime: we model
      the latency cost by ``check_latency`` seconds added to each
      decision's timestamp.
    * ``synchronous=False`` — decisions pass through immediately;
      the supervisor only inspects driver *state* every
      ``check_interval`` seconds of signal time and raises alarms.
      This is the fast regime with detection lag.

    Degradation detection (synchronous mode): with ``stale_after`` set,
    an inter-signal gap beyond it means the input stream went silent —
    the supervisor enters degraded mode and its policy governs the
    decisions derived from the stale observation.  With
    ``degrade_on_risk`` set, a *state* risk at or above it (implausible
    input, as opposed to one bad decision) does the same.  One healthy
    signal exits degraded mode.
    """

    def __init__(
        self,
        driver: DataDrivenSystem,
        supervisor: Supervisor,
        synchronous: bool = True,
        check_latency: float = 0.05,
        check_interval: float = 1.0,
        raise_on_veto: bool = False,
        stale_after: Optional[float] = None,
        degrade_on_risk: Optional[float] = None,
    ):
        if check_latency < 0 or check_interval <= 0:
            raise ValueError("latencies must be non-negative, interval positive")
        if stale_after is not None and stale_after <= 0:
            raise ValueError("stale_after must be positive")
        self.driver = driver
        self.supervisor = supervisor
        self.synchronous = synchronous
        self.check_latency = check_latency
        self.check_interval = check_interval
        self.raise_on_veto = raise_on_veto
        self.stale_after = stale_after
        self.degrade_on_risk = degrade_on_risk
        self.suppressed: List[Decision] = []
        self._last_async_check = -float("inf")
        self._last_signal_time: Optional[float] = None
        self.name = f"supervised({driver.name})"

    @property
    def decision_only(self) -> bool:
        """Whether only decisions can change this supervisor: synchronous,
        with no ``stale_after``, no ``degrade_on_risk`` and no
        ``raise_on_veto``.

        While such a supervisor is not degraded, a signal that yields no
        decision only moves :attr:`_last_signal_time`, so a caller that
        knows every decision of a stream can pass just those through
        :meth:`screen` (at the driver state of their signal) and set
        :attr:`_last_signal_time` to the stream's last signal time.  Its
        model may then read only the driver's ``state()`` and driver
        statistics that move with the decision-making signals (as
        ``RtoPlausibilityModel`` reads Blink's ``retransmission_gaps``):
        such a caller may settle other statistics only when the stream
        ends.
        """
        return (
            self.synchronous
            and self.stale_after is None
            and self.degrade_on_risk is None
            and not self.raise_on_veto
        )

    def _update_degradation(self, signal: Signal, state: Optional[SystemState]) -> None:
        """Enter/exit degraded mode from signal-stream health.

        ``state`` is read only with ``degrade_on_risk`` set.
        """
        gap = (
            signal.time - self._last_signal_time
            if self._last_signal_time is not None
            else None
        )
        self._last_signal_time = signal.time
        silent = (
            self.stale_after is not None and gap is not None and gap > self.stale_after
        )
        implausible = (
            self.degrade_on_risk is not None
            and self.supervisor.model.risk(state) >= self.degrade_on_risk
        )
        if silent or implausible:
            reason = "telemetry silent" if silent else "input implausible"
            self.supervisor.enter_degraded(signal.time, reason)
        elif self.supervisor.is_degraded:
            self.supervisor.exit_degraded(signal.time, "telemetry recovered")

    def observe(self, signal: Signal) -> List[Decision]:
        decisions = self.driver.observe(signal)
        # The driver's state is built only when something reads it: a
        # snapshot can cost a scan of the driver's tables (Blink's
        # selector cells), and most signals yield no decision.  Drivers'
        # state() must be free of side effects, so skipping it changes
        # no outcome.
        if not self.synchronous:
            if signal.time - self._last_async_check >= self.check_interval:
                self._last_async_check = signal.time
                self.supervisor.check_state(self.driver.state())
            return decisions
        state = self.driver.state() if self.degrade_on_risk is not None else None
        self._update_degradation(signal, state)
        return self.screen(decisions, state) if decisions else []

    def screen(
        self, decisions: List[Decision], state: Optional[SystemState] = None
    ) -> List[Decision]:
        """The synchronous decision filter: returns the ``decisions`` the
        supervisor (or, while degraded, its policy) releases, each delayed
        by ``check_latency``; the others go to :attr:`suppressed`.

        ``state`` is the driver's current state if the caller has built
        it; otherwise it is built when the first decision needs it.
        """
        released: List[Decision] = []
        for decision in decisions:
            if self.supervisor.is_degraded:
                verdict = self.supervisor.degraded_decision(decision)
                if verdict is None or verdict is not decision:
                    self.suppressed.append(decision)
                if verdict is not None:
                    released.append(
                        Decision(
                            action=verdict.action,
                            subject=verdict.subject,
                            value=verdict.value,
                            time=verdict.time + self.check_latency,
                            confidence=verdict.confidence,
                        )
                    )
                continue
            if state is None:
                state = self.driver.state()
            if self.supervisor.check_decision(state, decision):
                released.append(
                    Decision(
                        action=decision.action,
                        subject=decision.subject,
                        value=decision.value,
                        time=decision.time + self.check_latency,
                        confidence=decision.confidence,
                    )
                )
            else:
                self.suppressed.append(decision)
                if self.raise_on_veto:
                    raise SupervisorVeto(
                        f"supervisor vetoed {decision.action} on {decision.subject!r}",
                        decision=decision,
                        risk=self.supervisor.model.risk(state, decision),
                    )
        return released

    def state(self) -> SystemState:
        return self.driver.state()

    def reset(self) -> None:
        self.driver.reset()
        self.suppressed.clear()
        self._last_async_check = -float("inf")
        self._last_signal_time = None
