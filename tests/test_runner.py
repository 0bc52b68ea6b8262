"""Tests for the resilient runner and checkpointed sweeps."""

import json
import random

import pytest

from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.core.errors import (
    CheckpointError,
    ConfigurationError,
    ExperimentTimeout,
    SimulationError,
)
from repro.runner import (
    ParallelSweepExecutor,
    ResilientRunner,
    RetryPolicy,
    SweepCheckpoint,
    call_with_timeout,
    seed_cells,
    sweep_fingerprint,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=2.0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            max_retries=3, backoff_base_s=0.1, backoff_factor=2.0, jitter_fraction=0.0
        )
        rng = random.Random(0)
        assert policy.backoff_s(1, rng) == pytest.approx(0.1)
        assert policy.backoff_s(2, rng) == pytest.approx(0.2)
        assert policy.backoff_s(3, rng) == pytest.approx(0.4)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, jitter_fraction=0.1)
        rng = random.Random(0)
        for _ in range(50):
            assert 0.9 <= policy.backoff_s(1, rng) <= 1.1


class TestCallWithTimeout:
    def test_no_timeout_runs_inline(self):
        assert call_with_timeout(lambda: 42, None) == 42

    def test_completes_within_budget(self):
        assert call_with_timeout(lambda: "ok", 5.0) == "ok"

    def test_expiry_raises_experiment_timeout(self):
        import time

        with pytest.raises(ExperimentTimeout):
            call_with_timeout(lambda: time.sleep(2.0), 0.05)

    def test_worker_exception_reraised(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_timeout(boom, 5.0)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            call_with_timeout(lambda: None, -1.0)


class TestResilientRunner:
    def _runner(self, retries):
        return ResilientRunner(
            RetryPolicy(max_retries=retries, backoff_base_s=0.001),
            sleep=lambda s: None,
        )

    def test_success_first_try(self):
        outcome = self._runner(2).run(lambda: "result")
        assert outcome.succeeded
        assert outcome.result == "result"
        assert outcome.retries == 0

    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise SimulationError("transient")
            return "done"

        outcome = self._runner(5).run(flaky)
        assert outcome.succeeded
        assert outcome.result == "done"
        assert outcome.retries == 2
        assert [a.error_type for a in outcome.attempts] == [
            "SimulationError",
            "SimulationError",
            None,
        ]

    def test_gives_up_after_max_retries(self):
        def always_fails():
            raise SimulationError("persistent")

        outcome = self._runner(2).run(always_fails)
        assert not outcome.succeeded
        assert outcome.error == "persistent"
        assert len(outcome.attempts) == 3

    def test_non_retryable_error_propagates(self):
        def config_bug():
            raise ConfigurationError("bad setup")

        with pytest.raises(ConfigurationError):
            self._runner(5).run(config_bug)

    def test_timeout_flagged(self):
        import time

        runner = ResilientRunner(timeout_s=0.05, sleep=lambda s: None)
        outcome = runner.run(lambda: time.sleep(2.0))
        assert not outcome.succeeded
        assert outcome.timed_out

    def test_backoff_sequence_is_seeded(self):
        def backoffs(seed):
            calls = []

            def flaky():
                calls.append(1)
                if len(calls) < 4:
                    raise SimulationError("x")
                return None

            runner = ResilientRunner(
                RetryPolicy(max_retries=5, backoff_base_s=0.01),
                seed=seed,
                sleep=lambda s: None,
            )
            return [a.backoff_s for a in runner.run(flaky).attempts[:-1]]

        assert backoffs(7) == backoffs(7)
        assert backoffs(7) != backoffs(8)


class _CountingAttack(Attack):
    """Deterministic toy attack; optionally fails on marked seeds."""

    name = "toy-sweepable"
    required_privilege = Privilege.HOST
    target = Target.ENDPOINT
    required_capabilities = (Capability.MANIPULATE_OWN_TRAFFIC,)
    impacts = (Impact.PERFORMANCE,)

    def __init__(self, fail_seeds=()):
        self.fail_seeds = set(fail_seeds)
        self.executions = []

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        seed = int(params["seed"])
        self.executions.append(seed)
        if seed in self.fail_seeds:
            raise SimulationError("injected failure")
        return AttackResult(
            attack_name=self.name,
            success=seed % 2 == 0,
            time_to_success=float(seed),
            magnitude=seed / 10.0,
            details={"seed": seed},
        )


def _inline_sweep(attack, cells, checkpoint_path=None, progress=None):
    """A jobs=1 sweep: every cell runs in this process, on ``attack`` itself."""
    return ParallelSweepExecutor(jobs=1).run(
        attack, cells, checkpoint_path=checkpoint_path, progress=progress
    )


class TestSweepCheckpoint:
    def test_fingerprint_sensitive_to_cells(self):
        a = sweep_fingerprint("x", seed_cells({}, [0, 1]))
        b = sweep_fingerprint("x", seed_cells({}, [0, 2]))
        c = sweep_fingerprint("y", seed_cells({}, [0, 1]))
        assert len({a, b, c}) == 3

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fp = sweep_fingerprint("toy-sweepable", seed_cells({}, [0, 1]))
        checkpoint = SweepCheckpoint(str(path), fp)
        checkpoint.record_cell(seed_cells({}, [0, 1])[0], {"success": True})
        with open(path, "a") as handle:
            handle.write('{"record": "cell", "index": 1, "resu')  # killed mid-write
        reloaded = SweepCheckpoint(str(path), fp)
        assert list(reloaded.completed) == [0]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fp = "abc"
        SweepCheckpoint(str(path), fp)
        with open(path, "a") as handle:
            handle.write("garbage\n")
            handle.write('{"record": "cell", "index": 0, "result": {}}\n')
        with pytest.raises(CheckpointError, match="corrupt"):
            SweepCheckpoint(str(path), fp)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        SweepCheckpoint(str(path), "aaaa")
        with pytest.raises(CheckpointError, match="different sweep"):
            SweepCheckpoint(str(path), "bbbb")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            SweepCheckpoint(str(path), "aaaa")


class TestRunSweep:
    def test_clean_sweep_executes_all(self):
        attack = _CountingAttack()
        report = _inline_sweep(attack, seed_cells({}, [0, 1, 2]))
        assert attack.executions == [0, 1, 2]
        assert report.executed == 3
        assert report.resumed == 0
        assert report.aggregate()["completed"] == 3

    def test_killed_sweep_resumes_byte_identically(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = seed_cells({"extra": 1}, [0, 1, 2, 3])

        class _Killed(Exception):
            pass

        def kill_after_two(cell, payload):
            if cell.index == 1:
                raise _Killed()

        first = _CountingAttack()
        with pytest.raises(_Killed):
            _inline_sweep(first, cells, str(path), progress=kill_after_two)
        assert first.executions == [0, 1]

        second = _CountingAttack()
        resumed = _inline_sweep(second, cells, str(path))
        assert second.executions == [2, 3]
        assert resumed.resumed == 2
        assert resumed.executed == 2

        clean = _inline_sweep(_CountingAttack(), cells)
        assert resumed.aggregate_json() == clean.aggregate_json()

    def test_failed_cell_retried_on_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = seed_cells({}, [0, 1])
        flaky = _CountingAttack(fail_seeds={1})
        report = _inline_sweep(flaky, cells, str(path))
        assert report.failed == 1

        recovered = _CountingAttack()  # seed 1 no longer fails
        again = _inline_sweep(recovered, cells, str(path))
        assert recovered.executions == [1]
        assert again.failed == 0
        assert again.resumed == 1

    def test_aggregate_json_sorted_and_stable(self):
        report = _inline_sweep(_CountingAttack(), seed_cells({}, [2, 4]))
        payload = json.loads(report.aggregate_json())
        assert payload["success_rate"] == 1.0
        assert report.aggregate_json() == report.aggregate_json()
        assert list(payload) == sorted(payload)
