"""Tests for the driver/supervisor framework (Section 5, Fig. 3)."""

import pytest

from repro.core.entities import Signal, SignalKind
from repro.core.errors import SupervisorVeto
from repro.core.supervisor import (
    OperatingRange,
    SupervisedDriver,
    Supervisor,
    ThresholdModel,
)
from repro.core.system import DataDrivenSystem, Decision, SystemState


class _ToyDriver(DataDrivenSystem):
    """Emits one decision per signal; state mirrors the last value."""

    name = "toy-driver"

    def __init__(self):
        self.last_value = 0.0

    def observe(self, signal):
        self.last_value = float(signal.value)
        return [Decision("steer", "net", signal.value, time=signal.time)]

    def state(self):
        return SystemState(time=0.0, variables={"speed": self.last_value})


def _signal(value, time=0.0):
    return Signal(SignalKind.TIMING, "speed", value, time=time)


class TestThresholdModel:
    def test_zero_risk_in_bounds(self):
        model = ThresholdModel({"speed": (0.0, 10.0)})
        assert model.risk(SystemState(0.0, {"speed": 5.0})) == 0.0

    def test_full_risk_out_of_bounds(self):
        model = ThresholdModel({"speed": (0.0, 10.0)})
        assert model.risk(SystemState(0.0, {"speed": 50.0})) == 1.0

    def test_partial_risk_with_multiple_bounds(self):
        model = ThresholdModel({"a": (0, 1), "b": (0, 1)})
        state = SystemState(0.0, {"a": 5, "b": 0.5})
        assert model.risk(state) == 0.5

    def test_missing_variable_ignored(self):
        model = ThresholdModel({"missing": (0, 1)})
        assert model.risk(SystemState(0.0, {})) == 0.0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ThresholdModel().set_bound("x", 2.0, 1.0)


class TestOperatingRange:
    def test_action_allowlist(self):
        rng = OperatingRange(allowed_actions=["reroute"])
        assert rng.permits(Decision("reroute", "p", "nh", 0.0), [])
        assert not rng.permits(Decision("drop-everything", "p", None, 0.0), [])

    def test_value_predicate(self):
        rng = OperatingRange(
            value_predicates={"set-rate": lambda d: 0 < float(d.value) < 100}
        )
        assert rng.permits(Decision("set-rate", "f", 50.0, 0.0), [])
        assert not rng.permits(Decision("set-rate", "f", 500.0, 0.0), [])

    def test_rate_limit_window(self):
        rng = OperatingRange(max_decisions_per_window=2, window_seconds=10.0)
        decision = Decision("reroute", "p", "nh", time=15.0)
        assert rng.permits(decision, [14.0])
        assert not rng.permits(decision, [14.0, 9.0, 8.0])  # 14 and 9 in window
        # Old timestamps outside the window don't count.
        assert rng.permits(decision, [1.0, 2.0])


class TestSupervisedDriverSynchronous:
    def test_benign_decisions_pass_with_latency(self):
        driver = _ToyDriver()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(driver, supervisor, check_latency=0.05)
        decisions = supervised.observe(_signal(5.0, time=1.0))
        assert len(decisions) == 1
        assert decisions[0].time == pytest.approx(1.05)

    def test_risky_decision_suppressed(self):
        driver = _ToyDriver()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(driver, supervisor)
        assert supervised.observe(_signal(99.0)) == []
        assert len(supervised.suppressed) == 1
        assert len(supervisor.vetoes) == 1

    def test_raise_on_veto(self):
        driver = _ToyDriver()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(driver, supervisor, raise_on_veto=True)
        with pytest.raises(SupervisorVeto):
            supervised.observe(_signal(99.0))

    def test_operating_range_enforced(self):
        driver = _ToyDriver()
        supervisor = Supervisor(
            ThresholdModel(),
            operating_range=OperatingRange(allowed_actions=["other-action"]),
        )
        supervised = SupervisedDriver(driver, supervisor)
        assert supervised.observe(_signal(1.0)) == []


class TestSupervisedDriverAsynchronous:
    def test_decisions_pass_immediately(self):
        driver = _ToyDriver()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(driver, supervisor, synchronous=False)
        decisions = supervised.observe(_signal(99.0, time=0.0))
        # Async mode never blocks the decision...
        assert len(decisions) == 1
        # ...but raises an alarm at the next check.
        assert len(supervisor.alarms) == 1

    def test_check_interval_limits_alarm_rate(self):
        driver = _ToyDriver()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(
            driver, supervisor, synchronous=False, check_interval=10.0
        )
        for t in (0.0, 1.0, 2.0):
            supervised.observe(_signal(99.0, time=t))
        assert len(supervisor.alarms) == 1  # only the t=0 check ran

    def test_detection_lag_tradeoff(self):
        """Async mode detects strictly later than sync vetoes."""
        driver = _ToyDriver()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(
            driver, supervisor, synchronous=False, check_interval=5.0
        )
        supervised.observe(_signal(1.0, time=0.0))  # benign check at t=0
        supervised.observe(_signal(99.0, time=1.0))  # attack starts; no check yet
        assert supervisor.alarms == []
        supervised.observe(_signal(99.0, time=6.0))  # next check fires
        assert len(supervisor.alarms) == 1


class _SparseDriver(DataDrivenSystem):
    """Decides on every third signal; counts how often its state is built."""

    name = "sparse-driver"

    def __init__(self):
        self.last_value = 0.0
        self.seen = 0
        self.state_calls = 0

    def observe(self, signal):
        self.last_value = float(signal.value)
        self.seen += 1
        if self.seen % 3:
            return []
        return [Decision("steer", "net", signal.value, time=signal.time)]

    def state(self):
        self.state_calls += 1
        return SystemState(time=0.0, variables={"speed": self.last_value})


class _EagerSupervisedDriver(SupervisedDriver):
    """The supervised driver that builds the driver's state on every signal."""

    def observe(self, signal):
        decisions = self.driver.observe(signal)
        state = self.driver.state()
        if self.synchronous:
            self._update_degradation(signal, state)
            released = []
            for decision in decisions:
                if self.supervisor.is_degraded:
                    verdict = self.supervisor.degraded_decision(decision)
                    if verdict is None or verdict is not decision:
                        self.suppressed.append(decision)
                    if verdict is not None:
                        released.append(
                            Decision(
                                verdict.action, verdict.subject, verdict.value,
                                verdict.time + self.check_latency, verdict.confidence,
                            )
                        )
                elif self.supervisor.check_decision(state, decision):
                    released.append(
                        Decision(
                            decision.action, decision.subject, decision.value,
                            decision.time + self.check_latency, decision.confidence,
                        )
                    )
                else:
                    self.suppressed.append(decision)
            return released
        if signal.time - self._last_async_check >= self.check_interval:
            self._last_async_check = signal.time
            self.supervisor.check_state(state)
        return decisions


#: Speeds in and out of the model's bounds, with gaps that outlast
#: ``stale_after`` now and then.
_SIGNALS = [
    (t, value)
    for t, value in zip(
        (0.0, 0.5, 1.0, 1.5, 9.0, 9.2, 9.4, 9.6, 20.0, 20.1, 20.2, 20.3, 20.4, 31.0, 31.5),
        (1.0, 5.0, 50.0, 2.0, 3.0, 80.0, 4.0, 4.0, 4.0, 90.0, 1.0, 2.0, 70.0, 3.0, 3.0),
    )
]


class TestLazyDriverState:
    MODES = {
        "degrade-on-risk": dict(synchronous=True, degrade_on_risk=0.5),
        "stale-after": dict(synchronous=True, stale_after=5.0),
        "plain": dict(synchronous=True),
        "asynchronous": dict(synchronous=False, check_interval=0.2),
    }

    @staticmethod
    def _run(cls, mode):
        driver = _SparseDriver()
        supervisor = Supervisor(
            ThresholdModel({"speed": (0, 10)}), degradation="hold_last_safe"
        )
        supervised = cls(driver, supervisor, **TestLazyDriverState.MODES[mode])
        released = [
            (d.action, d.value, d.time)
            for t, value in _SIGNALS
            for d in supervised.observe(_signal(value, time=t))
        ]
        events = [(e.time, e.kind, e.risk, e.note) for e in supervisor.events]
        return released, list(supervised.suppressed), events, supervisor.alarms, driver

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_same_outcome_as_eager_state(self, mode):
        lazy = self._run(SupervisedDriver, mode)
        eager = self._run(_EagerSupervisedDriver, mode)
        assert lazy[:4] == eager[:4]
        assert lazy[0] or lazy[1] or lazy[3]  # the run decided something
        assert eager[4].state_calls == len(_SIGNALS)
        if mode == "degrade-on-risk":  # every signal's risk is read
            assert lazy[4].state_calls == len(_SIGNALS)
        else:
            assert lazy[4].state_calls < len(_SIGNALS)

    @pytest.mark.parametrize("mode", ["plain", "stale-after"])
    def test_decision_free_signal_builds_no_state(self, mode):
        driver = _SparseDriver()
        supervised = SupervisedDriver(
            driver, Supervisor(ThresholdModel({"speed": (0, 10)})),
            **self.MODES[mode],
        )
        assert supervised.observe(_signal(99.0, time=0.0)) == []
        assert supervised.observe(_signal(99.0, time=50.0)) == []
        assert driver.state_calls == 0
        supervised.observe(_signal(99.0, time=51.0))  # the third signal decides
        assert driver.state_calls == 1

    def test_asynchronous_builds_state_only_when_a_check_is_due(self):
        driver = _SparseDriver()
        supervised = SupervisedDriver(
            driver, Supervisor(ThresholdModel({"speed": (0, 10)})),
            synchronous=False, check_interval=10.0,
        )
        for t in (0.0, 1.0, 2.0, 3.0, 11.0):
            supervised.observe(_signal(99.0, time=t))
        assert driver.state_calls == 2  # the checks at t=0 and t=11

    def test_degrade_on_risk_reads_state_every_signal(self):
        driver = _SparseDriver()
        supervised = SupervisedDriver(
            driver, Supervisor(ThresholdModel({"speed": (0, 10)})),
            degrade_on_risk=0.5,
        )
        supervised.observe(_signal(1.0, time=0.0))
        supervised.observe(_signal(1.0, time=1.0))
        assert driver.state_calls == 2
