"""Resilient execution of one experiment: timeout, retry, backoff.

The ROADMAP's long sweeps die to transient failures — runaway event
cascades tripping the :class:`~repro.netsim.events.EventLoop` watchdog,
hangs, fault drills pushing a simulator into a corner.  This module
wraps a single run with:

* a **wall-clock timeout** — the run executes on a daemon worker
  thread; if it outlives its budget the caller gets
  :class:`~repro.core.errors.ExperimentTimeout` (the abandoned thread
  cannot be killed, but daemon status means it never blocks exit), the
  thread-level complement of the EventLoop's own ``wall_limit_s``
  watchdog; and
* **bounded retry** with exponential backoff plus deterministic,
  seeded jitter for errors matching the policy (transient
  :class:`~repro.core.errors.SimulationError` by default —
  configuration bugs and privilege violations fail immediately).

Backoff jitter is derived per ``(seed, attempt)`` through SHA-256
(:func:`derive_backoff_rng`), not drawn from a shared RNG stream: the
backoff before retry *k* depends only on the runner seed and *k*, never
on how many runs the same runner executed before — retry schedules are
reproducible and testable in isolation.

Every attempt, retry and give-up is mirrored to the active tracer as a
``runner.*`` obs event, so a ledger shows the retry history of a run.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time as _wallclock
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Type

from repro.core.errors import ConfigurationError, ExperimentTimeout, SimulationError
from repro.obs import tracer as obs


def derive_backoff_rng(seed: int, attempt: int) -> random.Random:
    """A fresh RNG for the backoff before retry ``attempt`` of ``seed``.

    SHA-256 of ``"backoff:<seed>:<attempt>"`` seeds the stream, so the
    jitter for a given (seed, attempt) pair is a pure function of its
    inputs — independent of platform hash randomisation and of any
    draws made for earlier attempts or earlier runs.
    """
    digest = hashlib.sha256(f"backoff:{seed}:{attempt}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter."""

    max_retries: int = 0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    retry_on: Tuple[Type[BaseException], ...] = (SimulationError,)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1]")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        jitter = 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return base * jitter


@dataclass
class AttemptRecord:
    """What happened on one attempt of one run."""

    attempt: int
    wall_seconds: float
    error: Optional[str] = None
    error_type: Optional[str] = None
    backoff_s: float = 0.0


@dataclass
class RunOutcome:
    """Terminal outcome of a resilient run."""

    label: str
    result: Optional[object] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    error: Optional[str] = None
    timed_out: bool = False

    @property
    def succeeded(self) -> bool:
        """Did any attempt complete (regardless of the result's meaning)?"""
        return self.error is None

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)


def call_with_timeout(fn: Callable[[], object], timeout_s: Optional[float]) -> object:
    """Run ``fn``; raise :class:`ExperimentTimeout` past ``timeout_s``.

    With no timeout the call is direct (no thread).  With one, the call
    runs on a daemon thread; on expiry the thread is abandoned — it
    holds no locks the caller shares, and being a daemon it cannot keep
    the process alive.
    """
    if timeout_s is None:
        return fn()
    if timeout_s <= 0:
        raise ConfigurationError("timeout_s must be positive")
    box: dict = {}

    def target() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised on caller thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True, name="repro-run")
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise ExperimentTimeout(
            f"run exceeded wall-clock budget of {timeout_s}s"
        )
    if "error" in box:
        raise box["error"]
    return box.get("result")


class ResilientRunner:
    """Run callables to completion through timeouts and transient errors.

    Args:
        retry: the retry/backoff policy (default: no retries).
        timeout_s: per-attempt wall-clock budget (None: unbounded).
        seed: seeds the jitter derivation, keeping backoff sequences
            reproducible run-to-run.
        sleep: injectable sleep for tests (defaults to real sleeping).
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        seed: int = 0,
        sleep: Callable[[float], None] = _wallclock.sleep,
    ):
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        self.retry = retry or RetryPolicy()
        self.timeout_s = timeout_s
        self.seed = seed
        self._sleep = sleep

    def _give_up(self, outcome: RunOutcome, label: str, error: str) -> RunOutcome:
        outcome.error = error
        obs.emit(
            "runner.giveup",
            label=label,
            attempts=len(outcome.attempts),
            error=error,
            timed_out=outcome.timed_out,
        )
        return outcome

    def run(
        self,
        fn: Callable[[], object],
        label: str = "run",
        degrade: Optional[
            Callable[[BaseException], Optional[Callable[[], object]]]
        ] = None,
    ) -> RunOutcome:
        """Execute ``fn`` until it completes, retries exhaust, or a
        non-retryable error escapes (which propagates to the caller).

        ``degrade`` is consulted after each retryable failure: given the
        exception, it may return a *replacement* callable for every
        subsequent attempt (or None to keep retrying ``fn`` as-is).
        This is how a sharded run falls back to a single-shard retry
        after a :class:`~repro.core.errors.ShardCrashError` — see
        :func:`repro.netsim.sharded.degrade_to_single_shard`.
        """
        outcome = RunOutcome(label=label)
        attempt = 0
        while True:
            attempt += 1
            started = _wallclock.perf_counter()
            try:
                result = call_with_timeout(fn, self.timeout_s)
            except self.retry.retry_on as exc:
                wall = _wallclock.perf_counter() - started
                record = AttemptRecord(
                    attempt=attempt,
                    wall_seconds=wall,
                    error=str(exc),
                    error_type=type(exc).__name__,
                )
                outcome.attempts.append(record)
                if isinstance(exc, ExperimentTimeout):
                    outcome.timed_out = True
                if attempt > self.retry.max_retries:
                    return self._give_up(outcome, label, str(exc))
                record.backoff_s = self.retry.backoff_s(
                    attempt, derive_backoff_rng(self.seed, attempt)
                )
                degraded = degrade(exc) if degrade is not None else None
                if degraded is not None:
                    fn = degraded
                obs.emit(
                    "runner.retry",
                    label=label,
                    attempt=attempt,
                    backoff_s=record.backoff_s,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    degraded=degraded is not None,
                )
                self._sleep(record.backoff_s)
                continue
            wall = _wallclock.perf_counter() - started
            outcome.attempts.append(AttemptRecord(attempt=attempt, wall_seconds=wall))
            outcome.result = result
            outcome.timed_out = False
            obs.emit(
                "runner.complete", label=label, attempts=attempt, wall_seconds=wall
            )
            return outcome
