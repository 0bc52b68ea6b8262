"""Tests for the parallel sweep executor and the result cache."""

import json
import os
import signal

import pytest
from test_determinism import serial_report

from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.core.errors import (
    CheckpointError,
    ConfigurationError,
    SimulationError,
    WorkerCrashError,
)
from repro.obs import Tracer, activate
from repro.runner import (
    ParallelSweepExecutor,
    RegistryAttackFactory,
    ResultCache,
    cache_key,
    code_version,
    resolve_jobs,
    seed_cells,
)


class ToyAttack(Attack):
    """Cheap deterministic attack; picklable for pool workers."""

    name = "toy-parallel"
    required_privilege = Privilege.HOST
    target = Target.ENDPOINT
    required_capabilities = (Capability.MANIPULATE_OWN_TRAFFIC,)
    impacts = (Impact.PERFORMANCE,)

    def __init__(self, fail_seeds=()):
        self.fail_seeds = frozenset(fail_seeds)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        seed = int(params["seed"])
        if seed in self.fail_seeds:
            raise SimulationError("injected failure")
        return AttackResult(
            attack_name=self.name,
            success=seed % 2 == 0,
            time_to_success=float(seed),
            magnitude=seed / 10.0,
            details={"seed": seed, "scale": params.get("scale", 1)},
        )


class BrokenAttack(ToyAttack):
    """Raises a non-retryable configuration error from the worker."""

    name = "toy-broken"

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        raise ConfigurationError("bad setup")


class CrashingAttack(ToyAttack):
    """Kills its pool worker outright, like a ``kill -9`` or an OOM kill."""

    name = "toy-crashing"

    def __init__(self):
        super().__init__()
        self.parent_pid = os.getpid()

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        if os.getpid() == self.parent_pid:
            raise ConfigurationError("CrashingAttack must run in a pool worker")
        os._exit(137)


class SignalProbeAttack(ToyAttack):
    """Reports the SIGTERM/SIGINT handlers of the process it runs in."""

    name = "toy-signal-probe"

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        result = super().execute(privilege, **params)
        result.details["sigterm"] = str(signal.getsignal(signal.SIGTERM))
        result.details["sigint"] = str(signal.getsignal(signal.SIGINT))
        return result


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_cpu_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)


class TestRegistryFactory:
    def test_rebuilds_by_name(self):
        attack = RegistryAttackFactory("blink-capture-analytical")()
        assert attack.name == "blink-capture-analytical"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            RegistryAttackFactory("no-such-attack")()


class TestExecutorBasics:
    def test_inline_matches_serial_oracle(self):
        cells = seed_cells({}, [0, 1, 2, 3])
        serial = serial_report(ToyAttack(), cells)
        inline = ParallelSweepExecutor(jobs=1).run(ToyAttack(), cells)
        assert inline.aggregate_json() == serial.aggregate_json()
        assert inline.cells == serial.cells

    def test_pool_matches_serial_oracle(self):
        cells = seed_cells({"scale": 3}, [0, 1, 2, 3, 4])
        serial = serial_report(ToyAttack(), cells)
        parallel = ParallelSweepExecutor(jobs=3).run(ToyAttack(), cells)
        assert parallel.aggregate_json() == serial.aggregate_json()
        assert parallel.cells == serial.cells
        assert parallel.executed == 5

    def test_cells_merge_in_seed_order(self):
        cells = seed_cells({}, [9, 3, 7, 1])
        report = ParallelSweepExecutor(jobs=2).run(ToyAttack(), cells)
        assert [cell["index"] for cell in report.cells] == [0, 1, 2, 3]
        assert [cell["result"]["details"]["seed"] for cell in report.cells] == [
            9,
            3,
            7,
            1,
        ]

    def test_failed_cells_counted_not_journaled(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        cells = seed_cells({}, [0, 1, 2])
        report = ParallelSweepExecutor(jobs=2).run(
            ToyAttack(fail_seeds={1}), cells, checkpoint_path=path
        )
        assert report.failed == 1
        failed = [cell for cell in report.cells if cell["result"] is None]
        assert len(failed) == 1 and failed[0]["error"] == "injected failure"
        journal = [json.loads(line) for line in open(path)]
        assert {r["index"] for r in journal if r["record"] == "cell"} == {0, 2}

    def test_non_retryable_error_propagates_from_worker(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepExecutor(jobs=2).run(BrokenAttack(), seed_cells({}, [0, 1]))

    def test_registry_attack_through_pool(self):
        cells = seed_cells({"runs": 3}, [0, 1, 2])
        report = ParallelSweepExecutor(jobs=2).run(
            RegistryAttackFactory("blink-capture-analytical"), cells
        )
        assert report.executed == 3
        assert report.aggregate()["completed"] == 3


class TestPoolWorkerSafety:
    def test_dead_worker_raises_worker_crash_error(self):
        with pytest.raises(WorkerCrashError, match="died mid-sweep"):
            ParallelSweepExecutor(jobs=2).run(
                CrashingAttack(), seed_cells({}, [0, 1])
            )

    def test_workers_reset_inherited_signal_handlers(self):
        def parent_handler(signum, frame):  # pragma: no cover - never fires
            pass

        previous = signal.signal(signal.SIGTERM, parent_handler)
        try:
            report = ParallelSweepExecutor(jobs=2).run(
                SignalProbeAttack(), seed_cells({}, [0, 1])
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert report.executed == 2
        for cell in report.cells:
            details = cell["result"]["details"]
            assert details["sigterm"] == str(signal.SIG_DFL)
            assert details["sigint"] == str(signal.SIG_IGN)


class TestCheckpointInterop:
    """A checkpoint written at one worker count resumes at another."""

    def test_parallel_resumes_serial_checkpoint(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        cells = seed_cells({}, [0, 1, 2, 3])

        class _Killed(Exception):
            pass

        def kill_after_two(cell, payload):
            if cell.index == 1:
                raise _Killed()

        with pytest.raises(_Killed):
            ParallelSweepExecutor(jobs=1).run(
                ToyAttack(), cells, checkpoint_path=path, progress=kill_after_two
            )

        resumed = ParallelSweepExecutor(jobs=2).run(
            ToyAttack(), cells, checkpoint_path=path
        )
        assert resumed.resumed == 2 and resumed.executed == 2
        clean = serial_report(ToyAttack(), cells)
        assert resumed.aggregate_json() == clean.aggregate_json()

    def test_serial_resumes_parallel_checkpoint(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        cells = seed_cells({}, [0, 1, 2, 3])

        class _Killed(Exception):
            pass

        hits = []

        def kill_early(cell, payload):
            hits.append(cell.index)
            raise _Killed()

        with pytest.raises(_Killed):
            ParallelSweepExecutor(jobs=2).run(
                ToyAttack(), cells, checkpoint_path=path, progress=kill_early
            )
        resumed = ParallelSweepExecutor(jobs=1).run(
            ToyAttack(), cells, checkpoint_path=path
        )
        assert resumed.resumed >= 1
        assert resumed.resumed + resumed.executed == len(cells)
        clean = serial_report(ToyAttack(), cells)
        assert resumed.aggregate_json() == clean.aggregate_json()

    def test_mismatched_checkpoint_raises(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        ParallelSweepExecutor(jobs=1).run(
            ToyAttack(), seed_cells({}, [0]), checkpoint_path=path
        )
        with pytest.raises(CheckpointError):
            ParallelSweepExecutor(jobs=1).run(
                ToyAttack(), seed_cells({}, [0, 1]), checkpoint_path=path
            )


class TestResultCache:
    def test_key_includes_params_and_code_version(self):
        a = cache_key("x", {"seed": 0})
        b = cache_key("x", {"seed": 1})
        c = cache_key("y", {"seed": 0})
        d = cache_key("x", {"seed": 0}, version="other")
        assert len({a, b, c, d}) == 4
        assert a == cache_key("x", {"seed": 0}, version=code_version())

    def test_kernel_edit_invalidates_code_version(self, tmp_path):
        # A byte-identical clone of the installed tree digests the same
        # as the memoised default — proving the walk covers everything,
        # kernels included — and editing one kernel file shifts the
        # digest, so cached results can never outlive kernel changes.
        import shutil

        import repro

        clone = tmp_path / "repro"
        shutil.copytree(
            os.path.dirname(repro.__file__),
            clone,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        assert code_version(package_root=str(clone)) == code_version()
        kernel = clone / "kernels.py"
        kernel.write_text(kernel.read_text() + "\n# perturbed\n")
        edited = code_version(package_root=str(clone))
        assert edited != code_version()
        # ... and the cache key (hence any stored entry) moves with it.
        assert cache_key("bloom-saturation", {"seed": 0}, version=edited) != cache_key(
            "bloom-saturation", {"seed": 0}, version=code_version()
        )
        # Non-source files never participate in the digest.
        (clone / "notes.txt").write_text("ignored")
        assert code_version(package_root=str(clone)) == edited

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key("toy", {"seed": 1})
        assert cache.get(key) is None
        cache.put(key, "toy", {"success": True, "magnitude": 0.5})
        assert cache.get(key) == {"success": True, "magnitude": 0.5}
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "corrupt": 0,
        }

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key("toy", {"seed": 1})
        cache.put(key, "toy", {"success": True})
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write("{broken")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_scan_reports_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(cache_key("a", {"seed": 0}), "a", {"success": True})
        cache.put(cache_key("b", {"seed": 0}), "b", {"success": False})
        scan = cache.scan()
        assert scan["entries"] == 2
        assert scan["by_attack"] == {"a": 1, "b": 1}
        assert scan["bytes"] > 0

    def test_empty_root_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultCache("")


class TestExecutorCache:
    def test_warm_sweep_skips_execution(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cells = seed_cells({}, [0, 1, 2, 3])
        cold = ParallelSweepExecutor(jobs=2, cache=cache).run(ToyAttack(), cells)
        warm = ParallelSweepExecutor(jobs=2, cache=cache).run(ToyAttack(), cells)
        assert cold.executed == 4 and cold.cached == 0
        assert warm.executed == 0 and warm.cached == 4
        assert warm.aggregate_json() == cold.aggregate_json()

    def test_cache_hits_fill_checkpoint(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cells = seed_cells({}, [0, 1])
        ParallelSweepExecutor(jobs=1, cache=cache).run(ToyAttack(), cells)
        path = str(tmp_path / "sweep.jsonl")
        warm = ParallelSweepExecutor(jobs=1, cache=cache).run(
            ToyAttack(), cells, checkpoint_path=path
        )
        assert warm.cached == 2
        journal = [json.loads(line) for line in open(path)]
        assert {r["index"] for r in journal if r["record"] == "cell"} == {0, 1}

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        ParallelSweepExecutor(jobs=1, cache=cache).run(
            ToyAttack(), seed_cells({"scale": 1}, [0])
        )
        report = ParallelSweepExecutor(jobs=1, cache=cache).run(
            ToyAttack(), seed_cells({"scale": 2}, [0])
        )
        assert report.cached == 0 and report.executed == 1


class TestObsMerging:
    def test_worker_shards_merge_into_parent_tracer(self):
        tracer = Tracer()
        cells = seed_cells({}, [0, 1, 2])
        with activate(tracer):
            ParallelSweepExecutor(jobs=2).run(ToyAttack(), cells)
        kinds = tracer.kind_counts()
        assert kinds.get("runner.sweep_done") == 1
        assert kinds.get("runner.cell_done") == 3
        # Each worker shard carries the per-cell span event.
        spans = [e for e in tracer.events_of("span") if "worker" in e.fields]
        assert len(spans) >= 3

    def test_tracer_ingest_restamps_worker_time(self):
        tracer = Tracer()
        tracer.ingest(
            [{"kind": "x", "t": 1.5, "fields": {"a": 1}}], worker=123
        )
        (event,) = tracer.events_of("x")
        assert event.fields["a"] == 1
        assert event.fields["worker"] == 123
        assert event.fields["worker_t"] == 1.5

    def test_untraced_run_ships_no_shards(self):
        report = ParallelSweepExecutor(jobs=2).run(ToyAttack(), seed_cells({}, [0, 1]))
        assert report.executed == 2  # and no tracer error without activation
