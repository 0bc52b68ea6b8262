"""Resilient experiment harness: timeouts, retries, checkpointed
parallel sweeps with result caching.

:class:`ParallelSweepExecutor` (:mod:`repro.runner.parallel`) is the
one engine that runs sweep cells: it fans them over a process pool (or
runs them inline at ``jobs=1``) with deterministic merge order.
:mod:`repro.runner.resilient` makes each cell survive transient
failures and hangs; :mod:`repro.runner.checkpoint` holds the cell,
journal and report types that let a sweep survive being killed
outright; and :mod:`repro.runner.cache` skips cells whose results are
already content-addressed on disk.  The CLI's ``--timeout``,
``--retries``, ``--seeds``, ``--resume``, ``--jobs`` and
``--cache-dir`` flags are thin wrappers over these.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    QUARANTINE_DIR,
    CacheStats,
    ResultCache,
    cache_key,
    code_version,
    default_cache_dir,
)
from repro.runner.checkpoint import (
    SweepCell,
    SweepCheckpoint,
    SweepReport,
    repair_torn_jsonl_tail,
    result_payload,
    seed_cells,
    sweep_fingerprint,
)
from repro.runner.parallel import (
    JOBS_ENV,
    ParallelSweepExecutor,
    RegistryAttackFactory,
    resolve_jobs,
)
from repro.runner.resilient import (
    AttemptRecord,
    ResilientRunner,
    RetryPolicy,
    RunOutcome,
    call_with_timeout,
    derive_backoff_rng,
)

__all__ = [
    "AttemptRecord",
    "CACHE_DIR_ENV",
    "CacheStats",
    "JOBS_ENV",
    "QUARANTINE_DIR",
    "ParallelSweepExecutor",
    "RegistryAttackFactory",
    "ResilientRunner",
    "ResultCache",
    "RetryPolicy",
    "RunOutcome",
    "SweepCell",
    "SweepCheckpoint",
    "SweepReport",
    "cache_key",
    "call_with_timeout",
    "code_version",
    "default_cache_dir",
    "derive_backoff_rng",
    "repair_torn_jsonl_tail",
    "resolve_jobs",
    "result_payload",
    "seed_cells",
    "sweep_fingerprint",
]
