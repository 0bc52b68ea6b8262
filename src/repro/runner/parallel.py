"""Parallel multi-seed sweeps: fan cells over a process pool, merge
deterministically.

The paper's quantitative claims are Monte-Carlo estimates over many
seeded runs; serially those sweeps are wall-clock bound on one core.
:class:`ParallelSweepExecutor` fans a cell list (typically one cell per
seed, from :func:`repro.runner.checkpoint.seed_cells`) over a
``concurrent.futures.ProcessPoolExecutor`` while preserving these
guarantees:

* **Determinism** — each cell is seeded through its params, every
  worker rebuilds its attack fresh, and the report's cells are merged
  in *submission* (seed) order regardless of completion order.  The
  aggregate JSON of a ``jobs=N`` sweep is byte-identical to ``jobs=1``
  and to running each cell's attack in index order by hand (the
  property ``tests/test_determinism.py`` pins).
* **Resumability** — completed cells stream into one JSONL checkpoint
  format (journaled in completion order for durability; the loader
  keys by index), so ``--resume`` works across worker counts
  interchangeably.
* **Caching** — with a :class:`~repro.runner.cache.ResultCache`, cells
  whose canonical key (attack + params + code version) is already
  stored are answered without touching the pool.
* **Observability** — each worker records its cell under a local
  :class:`~repro.obs.Tracer` shard wrapped in a ``sweep.cell`` span;
  the parent ingests every shard into the active tracer, so one
  RunLedger covers the whole sweep.  When a
  :class:`~repro.obs.metrics.MetricRegistry` is active, workers
  likewise collect per-cell registries and the parent merges them in
  cell-index order — merged counter sums and histogram bucket counts
  are identical between ``jobs=1`` and ``jobs=N``.

Workers receive the *name* of a registry attack (rebuilt via
:func:`repro.attacks.resolve_attack`) or a picklable attack
instance/factory — live unpicklable state never crosses the process
boundary.  Worker count comes from the ``jobs`` argument, the
``REPRO_JOBS`` environment variable, or ``os.cpu_count()``, in that
order; ``jobs=1`` (or a single pending cell) runs inline with no pool.

**One pool per process.**  The first pooled run forks a
``ProcessPoolExecutor`` (emitting one ``runner.pool_started`` event with
the worker count and pids) and later runs reuse it while its key — the
process id, the worker count and whether tracing and metrics are
active — still matches; a run under another key shuts it down and
forks afresh.  The pool is also retired when a worker dies, when any
exception leaves :meth:`ParallelSweepExecutor.run`, and after a run in
which a cell attempt timed out (the abandoned attempt thread must not
run beside the next sweep's cells); otherwise it lives until the
interpreter exits.  So a worker may carry imports and pure memoisation
(``functools.lru_cache``) from one sweep to the next, and it sees the
parent as it was when the pool forked, not as it is now: a cell must
depend only on its pickled arguments.  A process that runs one sweep
(``repro run --seeds``, ``repro scenarios run``) forks once either way;
a process that runs many (a scenario suite, a benchmark loop) stops
paying the fork and the workers' cold imports and caches per sweep.
Sweeps under different keys must not run concurrently from threads of
one process: each would retire the other's pool.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.attack import Attack
from repro.core.errors import ConfigurationError, ExperimentTimeout, WorkerCrashError
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.runner.cache import ResultCache, cache_key
from repro.runner.checkpoint import (
    SweepCell,
    SweepCheckpoint,
    SweepReport,
    result_payload,
    sweep_fingerprint,
)
from repro.runner.resilient import ResilientRunner, RetryPolicy

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument, then $REPRO_JOBS, then cores."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{JOBS_ENV}={env!r} is not an integer"
                ) from None
        else:
            return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _init_pool_worker() -> None:  # pragma: no cover - runs in pool workers
    """Reset inherited signal state in a freshly forked pool worker.

    Forked workers inherit the parent's Python signal handlers *and*
    its ``signal.set_wakeup_fd`` pipe.  When an embedding process runs
    an asyncio loop with SIGTERM/SIGINT handlers, a signal aimed at a
    dying worker would otherwise be echoed through the shared wakeup
    pipe into the parent's loop — e.g. when ``BrokenProcessPool``
    cleanup SIGTERMs the surviving workers.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


#: The process-wide pool and the key it was forked under.
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Optional[tuple] = None


def _pool_for(workers: int, traced: bool, metered: bool) -> Tuple[ProcessPoolExecutor, bool]:
    """The shared pool for this key, and whether it was just created.

    Workers see the parent as it was at fork time, so instrumentation
    is part of the key: hooks installed after the fork would miss them.
    """
    global _pool, _pool_key
    key = (os.getpid(), workers, traced, metered)
    if _pool is not None and _pool_key == key:
        return _pool, False
    _retire_pool()
    _pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_pool_worker)
    _pool_key = key
    return _pool, True


def _retire_pool() -> None:
    """Shut the shared pool down; a forked child only forgets its parent's."""
    global _pool, _pool_key
    pool, key = _pool, _pool_key
    _pool = _pool_key = None
    if pool is not None and key[0] == os.getpid():
        pool.shutdown(wait=True, cancel_futures=True)


class RegistryAttackFactory:
    """Picklable recipe: rebuild a registry attack by name in a worker."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self) -> Attack:
        from repro.attacks import resolve_attack

        return resolve_attack(self.name)


def _materialise(attack_source) -> Attack:
    """An Attack from either an instance or a zero-arg factory."""
    if isinstance(attack_source, Attack):
        return attack_source
    attack = attack_source()
    if not isinstance(attack, Attack):
        raise ConfigurationError(
            f"attack factory returned {type(attack).__name__}, not an Attack"
        )
    return attack


def _execute_cell(
    attack_source,
    index: int,
    params: Dict[str, object],
    retry: RetryPolicy,
    timeout_s: Optional[float],
    traced: bool,
    metered: bool = False,
) -> dict:
    """Run one cell (in a pool worker or inline) and package the outcome.

    Everything in and out of this function is picklable.  Non-retryable
    errors (configuration bugs, privilege violations) propagate, which
    the pool surfaces in the parent — the same fail-loud behaviour as
    an inline (``jobs=1``) cell.

    ``metered`` cells collect into a fresh per-cell
    :class:`~repro.obs.metrics.MetricRegistry` shipped back as
    ``record["metrics"]`` (a ``to_dict()`` payload); the parent merges
    shards in cell-index order, so the merged values are identical
    whether cells ran inline or across N processes.
    """
    attack = _materialise(attack_source)
    # Per-cell jitter seed: retries inside different workers must not
    # share RNG state, but the sequence stays reproducible per cell.
    runner = ResilientRunner(retry, timeout_s=timeout_s, seed=index)
    tracer = obs.Tracer() if traced else None
    registry = obs_metrics.MetricRegistry() if metered else None

    with obs.activate(tracer, registry), obs.span(f"sweep.cell[{index}]", index=index):
        outcome = runner.run(
            lambda: attack.run(**params), label=f"{attack.name}[{index}]"
        )
    shard = None
    if tracer is not None:
        shard = [
            {"kind": event.kind, "t": event.time, "fields": dict(event.fields)}
            for event in tracer.events
        ]
    record: dict = {
        "index": index,
        "attempts": len(outcome.attempts),
        "shard": shard,
        "pid": os.getpid(),
        # A timed-out attempt leaves its thread running in this worker.
        "abandoned": any(
            attempt.error_type == ExperimentTimeout.__name__
            for attempt in outcome.attempts
        ),
    }
    if registry is not None:
        record["metrics"] = registry.to_dict()
    if outcome.succeeded:
        record["ok"] = True
        record["payload"] = result_payload(outcome.result)  # type: ignore[arg-type]
    else:
        record["ok"] = False
        record["error"] = outcome.error
        record["timed_out"] = outcome.timed_out
    return record


class ParallelSweepExecutor:
    """Run sweep cells across processes with deterministic merge order.

    Args:
        jobs: worker count (None: ``$REPRO_JOBS`` or ``os.cpu_count()``).
        retry: per-cell retry policy (default: no retries).
        timeout_s: per-attempt wall-clock budget inside each worker.
        cache: optional content-addressed result cache consulted (and
            filled) per cell.

    A worker process dying mid-sweep surfaces as
    :class:`~repro.core.errors.WorkerCrashError` rather than the pool's
    raw ``BrokenProcessPool``; cells journaled before the crash are
    already checkpointed, so re-running the same sweep resumes instead
    of recomputing.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.retry = retry or RetryPolicy()
        self.timeout_s = timeout_s
        self.cache = cache

    # -- internals ---------------------------------------------------------

    def _ingest_shard(self, record: dict) -> None:
        tracer = obs.current()
        shard = record.get("shard")
        if tracer is None or not shard:
            return
        tracer.ingest(shard, worker=record.get("pid"))

    def _cell_record(self, cell: SweepCell, outcome: dict) -> dict:
        from repro.obs.ledger import jsonable

        if outcome["ok"]:
            return {
                "index": cell.index,
                "params": jsonable(cell.params),
                "result": outcome["payload"],
            }
        return {
            "index": cell.index,
            "params": jsonable(cell.params),
            "result": None,
            "error": outcome.get("error"),
            "timed_out": bool(outcome.get("timed_out")),
        }

    # -- entry point -------------------------------------------------------

    def run(
        self,
        attack_source,
        cells: Sequence[SweepCell],
        checkpoint_path: Optional[str] = None,
        progress: Optional[Callable[[SweepCell, dict], None]] = None,
    ) -> SweepReport:
        """Execute every cell; skip journaled and cached ones.

        ``attack_source`` is an :class:`~repro.core.attack.Attack`, a
        zero-arg factory, or a :class:`RegistryAttackFactory`.
        ``progress`` fires after each freshly executed cell (completion
        order under parallelism) with (cell, payload) — the hook the
        kill-and-resume tests use.
        """
        attack = _materialise(attack_source)
        # Workers rebuild from the factory; an Attack instance is
        # shipped as-is (it must then be picklable).
        worker_source = attack if isinstance(attack_source, Attack) else attack_source

        checkpoint: Optional[SweepCheckpoint] = None
        if checkpoint_path:
            checkpoint = SweepCheckpoint(
                checkpoint_path,
                sweep_fingerprint(attack.name, cells),
                attack_name=attack.name,
            )
        report = SweepReport(attack=attack.name)
        by_index: Dict[int, dict] = {}
        pending: List[SweepCell] = []

        for cell in cells:
            journaled = checkpoint.completed.get(cell.index) if checkpoint else None
            if journaled is not None and journaled.get("result"):
                by_index[cell.index] = {
                    "index": cell.index,
                    "params": journaled.get("params"),
                    "result": journaled["result"],
                }
                report.resumed += 1
                obs.emit("runner.cell_resumed", index=cell.index)
                continue
            if self.cache is not None:
                key = cache_key(attack.name, cell.params)
                stored = self.cache.get(key)
                if stored is not None:
                    by_index[cell.index] = self._cell_record(
                        cell, {"ok": True, "payload": stored}
                    )
                    report.cached += 1
                    if checkpoint is not None:
                        checkpoint.record_cell(cell, stored)
                    obs.emit("runner.cell_cached", index=cell.index)
                    continue
            pending.append(cell)

        metric_shards: Dict[int, dict] = {}

        def finish(cell: SweepCell, outcome: dict) -> None:
            """Merge one fresh outcome: journal, cache, trace, count."""
            self._ingest_shard(outcome)
            shard_metrics = outcome.get("metrics")
            if shard_metrics is not None:
                # Stash now (completion order), merge later in cell-index
                # order so jobs=1 and jobs=N sweeps agree exactly.
                metric_shards[outcome["index"]] = shard_metrics
            report.executed += 1
            record = self._cell_record(cell, outcome)
            by_index[cell.index] = record
            if not outcome["ok"]:
                report.failed += 1
                obs.emit(
                    "runner.cell_failed",
                    index=cell.index,
                    error=outcome.get("error"),
                    timed_out=bool(outcome.get("timed_out")),
                )
                return
            payload = outcome["payload"]
            if checkpoint is not None:
                checkpoint.record_cell(cell, payload)
            if self.cache is not None:
                self.cache.put(cache_key(attack.name, cell.params), attack.name, payload)
            obs.emit(
                "runner.cell_done",
                index=cell.index,
                attempts=outcome["attempts"],
                success=payload["success"],
                worker=outcome.get("pid"),
            )
            if progress is not None:
                progress(cell, payload)

        traced = obs.enabled()
        metered = obs_metrics.enabled()
        workers = min(self.jobs, len(pending)) if pending else 0
        if workers <= 1:
            for cell in pending:
                finish(
                    cell,
                    _execute_cell(
                        worker_source,
                        cell.index,
                        cell.params,
                        self.retry,
                        self.timeout_s,
                        traced,
                        metered,
                    ),
                )
        else:
            cell_of = {cell.index: cell for cell in pending}
            pool, started = _pool_for(workers, traced, metered)
            futures: set = set()
            abandoned = False
            try:
                for cell in pending:
                    futures.add(
                        pool.submit(
                            _execute_cell,
                            worker_source,
                            cell.index,
                            cell.params,
                            self.retry,
                            self.timeout_s,
                            traced,
                            metered,
                        )
                    )
                if started:
                    # Every worker is forked once all cells are submitted.
                    obs.emit(
                        "runner.pool_started",
                        workers=workers,
                        pids=sorted(pool._processes),
                    )
                while futures:
                    done, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        outcome = future.result()
                        abandoned = abandoned or outcome["abandoned"]
                        finish(cell_of[outcome["index"]], outcome)
            except BaseException as exc:
                for future in futures:
                    future.cancel()
                _retire_pool()
                if not isinstance(exc, BrokenProcessPool):
                    raise
                obs.emit("runner.worker_crash", attack=attack.name)
                obs_metrics.inc("runner.worker_crashes")
                raise WorkerCrashError(
                    f"sweep worker process died mid-sweep ({exc}); "
                    "completed cells are checkpointed — re-run to resume"
                ) from exc
            if abandoned:
                _retire_pool()

        # Deterministic merge: submission (seed) order, not completion.
        report.cells = [
            by_index[cell.index] for cell in cells if cell.index in by_index
        ]
        registry = obs_metrics.current()
        if registry is not None:
            # Cell-index order, independent of completion order — the
            # property the jobs=1-vs-jobs=N determinism test pins.
            for index in sorted(metric_shards):
                registry.merge_dict(metric_shards[index])
            registry.inc("sweep.cells_executed", report.executed)
            registry.inc("sweep.cells_cached", report.cached)
            registry.inc("sweep.cells_resumed", report.resumed)
            registry.inc("sweep.cells_failed", report.failed)
        obs.emit(
            "runner.sweep_done",
            attack=attack.name,
            cells=len(report.cells),
            executed=report.executed,
            resumed=report.resumed,
            cached=report.cached,
            failed=report.failed,
            jobs=workers or 1,
        )
        return report

