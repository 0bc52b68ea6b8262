"""Fault drills: the paper's attacks under degraded network conditions.

The supervisor argument (Sections 2 and 5) is about staying safe when
inputs are unreliable — this bench quantifies the other direction: what
injected *benign* degradation does to the attacks themselves.  Three
drills:

* Blink capture under telemetry dropout — the attacker's synchronised
  retransmissions only work if the selector sees them; a lossy mirror
  erodes the signal;
* PCC utility-equalisation under telemetry dropout — stale loss
  readings blunt the equaliser's per-MI utility pinning; and
* a resilience exercise: a multi-seed sweep killed mid-run and resumed
  from its checkpoint, asserting the byte-identical-aggregate property.

Every drill is seeded through the fault plan, so the numbers printed
here reproduce exactly across invocations (the CI chaos job asserts
this for the first two drills).

The heavy Blink and PCC drills run as sweeps of the parallel sweep
executor, one cell per parameter set, through the content-addressed
result cache (``$REPRO_CACHE_DIR``, default ``.repro-cache``): a warm
rerun of this bench serves every drill from disk and spends its wall
time only on the resilience exercise.  Every sweep here takes its
worker count from ``$REPRO_JOBS`` (default: the CPU count), so the
bench also exercises the process-pool path end to end.
"""

from conftest import banner, run_once

from repro.analysis import ascii_table
from repro.attacks import (
    BlinkAnalyticalAttack,
    BlinkCaptureAttack,
    PccOscillationAttack,
)
from repro.runner import (
    ParallelSweepExecutor,
    ResultCache,
    RetryPolicy,
    SweepCell,
    default_cache_dir,
    seed_cells,
)

BLINK_DROPOUTS = (0.05, 0.10, 0.20)


def _drill_payloads(attack, cache, base_params, faults):
    """One cached sweep: the clean run, then one cell per fault spec."""
    drills = [{}] + [{"faults": spec, "fault_seed": 1} for spec in faults]
    cells = [
        SweepCell(index=i, params={**base_params, **drill})
        for i, drill in enumerate(drills)
    ]
    report = ParallelSweepExecutor(cache=cache).run(attack, cells)
    return [cell["result"] for cell in report.cells]


def _experiment(tmp_dir, cache):
    blink_clean, *blink_runs = _drill_payloads(
        BlinkCaptureAttack(),
        cache,
        dict(horizon=200.0, legitimate_flows=400, malicious_flows=60, cells=64, seed=0),
        [f"telemetry-drop:p={p}" for p in BLINK_DROPOUTS],
    )
    blink_drills = dict(zip(BLINK_DROPOUTS, blink_runs))
    pcc_clean, pcc_drill = _drill_payloads(
        PccOscillationAttack(),
        cache,
        dict(mis=600, warmup_mis=200, seed=0),
        ["telemetry-drop:p=0.1"],
    )

    # Kill-and-resume drill through the parallel executor: run two
    # cells, "die", resume the rest (uncached — the drill *is* the
    # re-execution).
    path = str(tmp_dir / "sweep.jsonl")
    cells = seed_cells({"runs": 10}, [0, 1, 2, 3])

    def executor():
        return ParallelSweepExecutor(
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.001)
        )

    class _Killed(Exception):
        pass

    def kill_after_two(cell, payload):
        if cell.index == 1:
            raise _Killed()

    try:
        executor().run(
            BlinkAnalyticalAttack(), cells, checkpoint_path=path,
            progress=kill_after_two,
        )
    except _Killed:
        pass
    resumed = executor().run(BlinkAnalyticalAttack(), cells, checkpoint_path=path)
    clean = executor().run(BlinkAnalyticalAttack(), cells)
    return blink_clean, blink_drills, pcc_clean, pcc_drill, resumed, clean


def test_fault_drills(benchmark, tmp_path):
    cache = ResultCache(default_cache_dir())
    blink_clean, blink_drills, pcc_clean, pcc_drill, resumed, clean = run_once(
        benchmark, _experiment, tmp_path, cache
    )

    banner("Fault drill — Blink capture vs. telemetry dropout")
    rows = [
        {
            "dropout": "none",
            "captured": blink_clean["success"],
            "peak occupancy": f"{blink_clean['magnitude']:.0%}",
            "samples dropped": 0,
        }
    ]
    for p, res in sorted(blink_drills.items()):
        rows.append(
            {
                "dropout": f"{p:.0%}",
                "captured": res["success"],
                "peak occupancy": f"{res['magnitude']:.0%}",
                "samples dropped": res["details"]["telemetry_dropped"],
            }
        )
    print(ascii_table(rows, title="Lossy mirror erodes the attacker's signal"))
    print()

    banner("Fault drill — PCC equalisation vs. telemetry dropout")
    rows = [
        {
            "condition": "clean",
            "oscillation CV": round(pcc_clean["details"]["oscillation_cv_attacked"], 4),
            "stuck in decision": f"{pcc_clean['details']['fraction_mis_in_decision_attacked']:.0%}",
        },
        {
            "condition": "10% loss-reading dropout",
            "oscillation CV": round(pcc_drill["details"]["oscillation_cv_attacked"], 4),
            "stuck in decision": f"{pcc_drill['details']['fraction_mis_in_decision_attacked']:.0%}",
        },
    ]
    print(ascii_table(rows, title="Stale readings blunt the per-MI utility pinning"))
    print()

    banner("Resilience drill — killed sweep resumes byte-identically")
    print(f"resumed cells: {resumed.resumed}, re-executed: {resumed.executed}")
    print(f"aggregate (resumed) == aggregate (clean): "
          f"{resumed.aggregate_json() == clean.aggregate_json()}")
    stats = cache.stats
    print(
        f"result cache {cache.root}: {stats.hits} hit(s), "
        f"{stats.misses} miss(es), {stats.stores} store(s)"
    )

    # Shape assertions: faults are injected deterministically and the
    # resilience property holds.
    assert blink_clean["success"]
    assert all(r["details"]["telemetry_dropped"] > 0 for r in blink_drills.values())
    drops = [r["details"]["telemetry_dropped"] for _, r in sorted(blink_drills.items())]
    assert drops == sorted(drops)  # more dropout, more dropped samples
    assert pcc_drill["details"]["telemetry_dropped"] > 0
    assert resumed.resumed == 2 and resumed.executed == 2
    assert resumed.aggregate_json() == clean.aggregate_json()
    # A warm run answers every drill from the cache; a cold run stores
    # every drill it computed.
    assert stats.hits + stats.stores == 6

    benchmark.extra_info.update(
        {
            "blink_captured_at_10pct_dropout": blink_drills[0.10]["success"],
            "pcc_cv_clean": pcc_clean["details"]["oscillation_cv_attacked"],
            "pcc_cv_drilled": pcc_drill["details"]["oscillation_cv_attacked"],
            "sweep_resume_identical": resumed.aggregate_json() == clean.aggregate_json(),
            "cache": stats.as_dict(),
        }
    )
