"""Robustness regressions for the runner stack: seed-derived backoff
jitter, bounded retries, torn-tail journal repair, and cache
quarantine."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.errors import CheckpointError, SimulationError
from repro.runner.cache import QUARANTINE_DIR, ResultCache, cache_key
from repro.runner.checkpoint import (
    SweepCheckpoint,
    repair_torn_jsonl_tail,
    seed_cells,
    sweep_fingerprint,
)
from repro.runner.resilient import (
    ResilientRunner,
    RetryPolicy,
    derive_backoff_rng,
)


def _always_fail() -> None:
    raise SimulationError("transient")


# -- seed-derived backoff jitter -------------------------------------------


def test_backoff_rng_is_pure_function_of_seed_and_attempt():
    assert (
        derive_backoff_rng(3, 1).random() == derive_backoff_rng(3, 1).random()
    )
    assert (
        derive_backoff_rng(3, 1).random() != derive_backoff_rng(3, 2).random()
    )
    assert (
        derive_backoff_rng(3, 1).random() != derive_backoff_rng(4, 1).random()
    )


def test_backoff_schedule_independent_of_prior_runs():
    """The jitter for attempt k must not depend on how many runs the
    same runner already executed (the old shared-stream behaviour)."""
    policy = RetryPolicy(max_retries=3, backoff_base_s=0.01, jitter_fraction=0.5)

    def schedule() -> list:
        runner = ResilientRunner(policy, seed=11, sleep=lambda _s: None)
        outcome = runner.run(_always_fail)
        return [record.backoff_s for record in outcome.attempts[:-1]]

    first = schedule()
    # Re-running on a *fresh* runner with the same seed reproduces the
    # schedule; on the old shared-RNG scheme a second run on the same
    # runner instance would have drifted.
    runner = ResilientRunner(policy, seed=11, sleep=lambda _s: None)
    runner.run(_always_fail)
    second = [r.backoff_s for r in runner.run(_always_fail).attempts[:-1]]
    assert first == second
    assert first != [
        r.backoff_s
        for r in ResilientRunner(policy, seed=12, sleep=lambda _s: None)
        .run(_always_fail)
        .attempts[:-1]
    ]


def test_budget_unset_keeps_legacy_behaviour():
    policy = RetryPolicy(max_retries=2, backoff_base_s=0.001)
    outcome = ResilientRunner(policy, sleep=lambda _s: None).run(_always_fail)
    assert len(outcome.attempts) == 3
    assert not outcome.succeeded
    assert not outcome.timed_out


# -- torn-tail journal repair ----------------------------------------------


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))


def test_repair_truncates_partial_final_line(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    good = [json.dumps({"i": i}) + "\n" for i in range(3)]
    _write_lines(path, good + ['{"i": 3, "torn'])
    removed = repair_torn_jsonl_tail(path)
    assert removed == len('{"i": 3, "torn')
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.readlines() == good
    assert repair_torn_jsonl_tail(path) == 0  # idempotent


def test_repair_drops_single_corrupt_terminated_line(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    good = [json.dumps({"i": i}) + "\n" for i in range(2)]
    _write_lines(path, good + ['{"i": 2, "broken": \n'])
    assert repair_torn_jsonl_tail(path) > 0
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.readlines() == good


def test_repair_leaves_midfile_corruption_alone(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    lines = [
        json.dumps({"i": 0}) + "\n",
        "garbage mid-file\n",
        json.dumps({"i": 2}) + "\n",
    ]
    _write_lines(path, lines)
    assert repair_torn_jsonl_tail(path) == 0
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.readlines() == lines


def test_checkpoint_resume_survives_torn_tail(tmp_path):
    """The regression fixture from the issue: SIGKILL mid-append must
    never poison a later resume."""
    path = str(tmp_path / "sweep.jsonl")
    cells = seed_cells({"runs": 5}, [0, 1, 2])
    fingerprint = sweep_fingerprint("demo", cells)
    checkpoint = SweepCheckpoint(path, fingerprint, attack_name="demo")
    checkpoint.record_cell(cells[0], {"ok": 1})
    checkpoint.record_cell(cells[1], {"ok": 2})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"record": "cell", "index": 2, "resu')  # torn append

    resumed = SweepCheckpoint(path, fingerprint, attack_name="demo")
    assert sorted(resumed.completed) == [0, 1]
    # The repair was physical: the journal is clean JSON again and a
    # fresh append produces a well-formed file.
    resumed.record_cell(cells[2], {"ok": 3})
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            json.loads(line)


def test_checkpoint_midfile_corruption_still_raises(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    cells = seed_cells({}, [0, 1])
    fingerprint = sweep_fingerprint("demo", cells)
    checkpoint = SweepCheckpoint(path, fingerprint)
    checkpoint.record_cell(cells[0], {"ok": 1})
    checkpoint.record_cell(cells[1], {"ok": 2})
    lines = open(path, "r", encoding="utf-8").readlines()
    lines[1] = "not json\n"  # corruption *before* the tail
    _write_lines(path, lines)
    with pytest.raises(CheckpointError):
        SweepCheckpoint(path, fingerprint)


# -- cache quarantine -------------------------------------------------------


def _poison(cache: ResultCache, key: str, payload: str) -> None:
    with open(cache._path(key), "w", encoding="utf-8") as handle:
        handle.write(payload)


def test_corrupt_cache_entry_is_quarantined(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    key = cache_key("demo", {"seed": 0}, version="v1")
    cache.put(key, "demo", {"value": 1})
    _poison(cache, key, "{ not json")

    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    quarantined = os.path.join(cache.root, QUARANTINE_DIR, key + ".json")
    assert os.path.exists(quarantined)
    assert not os.path.exists(cache._path(key))
    # The slot is clean again: a fresh store serves hits as usual.
    cache.put(key, "demo", {"value": 2})
    assert cache.get(key) == {"value": 2}


def test_wrong_shape_entry_is_quarantined(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    key = cache_key("demo", {"seed": 1}, version="v1")
    cache.put(key, "demo", {"value": 1})
    _poison(cache, key, json.dumps({"attack": "demo", "result": "not-a-dict"}))
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_scan_counts_quarantined_entries(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    good = cache_key("demo", {"seed": 0}, version="v1")
    bad = cache_key("demo", {"seed": 1}, version="v1")
    cache.put(good, "demo", {"value": 1})
    cache.put(bad, "demo", {"value": 2})
    _poison(cache, bad, "xx")
    assert cache.get(bad) is None

    scan = cache.scan()
    assert scan["entries"] == 1
    assert scan["quarantined"] == 1


def test_report_cache_dir_prints_quarantine_line(tmp_path, capsys):
    from repro.cli import main

    cache = ResultCache(str(tmp_path / "cache"))
    key = cache_key("demo", {"seed": 0}, version="v1")
    cache.put(key, "demo", {"value": 1})
    _poison(cache, key, "broken")
    assert cache.get(key) is None

    assert main(["report", "--cache-dir", cache.root]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
