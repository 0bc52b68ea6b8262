"""Bit-reproducibility of parallel sweeps — the acceptance properties.

Parallelism is only trustworthy here if it is invisible in the output:
a sweep fanned over N workers must produce **byte-identical** aggregate
JSON to the same sweep run serially, resumed from a kill, or served
from the result cache.  These tests pin that contract for the paper's
three headline attacks (Blink, PCC, Pytheas) and, via Hypothesis,
for randomized seed/parameter grids.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Target
from repro.obs import jsonable
from repro.runner import (
    ParallelSweepExecutor,
    RegistryAttackFactory,
    ResultCache,
    SweepReport,
    result_payload,
    seed_cells,
)

#: Cheap parameterisations of the paper's three headline attacks —
#: small enough for CI, real enough to exercise the full simulators.
HEADLINE_ATTACKS = [
    ("blink-capture-analytical", {"runs": 4}),
    ("pcc-utility-equalisation", {"mis": 80, "warmup_mis": 20}),
    ("pytheas-report-poisoning", {"rounds": 30, "sessions_per_round": 30}),
]


def serial_report(attack, cells):
    """The oracle sweep: each cell's attack run in cell order, in process.

    No retry, journal, cache or pool — the executor at any ``jobs`` must
    report exactly this.
    """
    report = SweepReport(attack=attack.name, executed=len(cells))
    for cell in cells:
        payload = result_payload(attack.run(**cell.params))
        report.cells.append(
            {"index": cell.index, "params": jsonable(cell.params), "result": payload}
        )
    return report


def _serial_aggregate(name, params, seeds):
    attack = RegistryAttackFactory(name)()
    return serial_report(attack, seed_cells(params, seeds)).aggregate_json()


class TestSerialParallelEquality:
    @pytest.mark.parametrize("name,params", HEADLINE_ATTACKS)
    def test_parallel_aggregate_byte_identical(self, name, params):
        seeds = [0, 1, 2, 3]
        serial = _serial_aggregate(name, params, seeds)
        jobs1 = ParallelSweepExecutor(jobs=1).run(
            RegistryAttackFactory(name), seed_cells(params, seeds)
        )
        jobs4 = ParallelSweepExecutor(jobs=4).run(
            RegistryAttackFactory(name), seed_cells(params, seeds)
        )
        assert jobs1.aggregate_json() == serial
        assert jobs4.aggregate_json() == serial

    def test_faulted_sweep_parallel_equality(self):
        params = {
            "runs": 4,
            "faults": "telemetry-drop:p=0.1",
            "fault_seed": 7,
        }
        seeds = [0, 1, 2]
        serial = _serial_aggregate("blink-capture-analytical", params, seeds)
        parallel = ParallelSweepExecutor(jobs=3).run(
            RegistryAttackFactory("blink-capture-analytical"),
            seed_cells(params, seeds),
        )
        assert parallel.aggregate_json() == serial


class TestCacheEquality:
    @pytest.mark.parametrize("name,params", HEADLINE_ATTACKS[:1])
    def test_cache_hit_equals_cold_run(self, tmp_path, name, params):
        cache = ResultCache(str(tmp_path / "cache"))
        seeds = [0, 1, 2]
        cells = seed_cells(params, seeds)
        cold = ParallelSweepExecutor(jobs=2, cache=cache).run(
            RegistryAttackFactory(name), cells
        )
        warm = ParallelSweepExecutor(jobs=2, cache=cache).run(
            RegistryAttackFactory(name), cells
        )
        assert cold.executed == len(seeds) and warm.cached == len(seeds)
        assert warm.aggregate_json() == cold.aggregate_json()
        assert warm.aggregate_json() == _serial_aggregate(name, params, seeds)

    def test_cold_warm_cell_payloads_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cells = seed_cells({"runs": 3}, [0, 1])
        name = "blink-capture-analytical"
        cold = ParallelSweepExecutor(jobs=1, cache=cache).run(
            RegistryAttackFactory(name), cells
        )
        warm = ParallelSweepExecutor(jobs=1, cache=cache).run(
            RegistryAttackFactory(name), cells
        )
        assert json.dumps(cold.cells, sort_keys=True) == json.dumps(
            warm.cells, sort_keys=True
        )


class TestKillAndResume:
    def test_killed_parallel_sweep_resumes_byte_identically(self, tmp_path):
        name = "blink-capture-analytical"
        params = {"runs": 3}
        seeds = [0, 1, 2, 3, 4, 5]
        cells = seed_cells(params, seeds)
        path = str(tmp_path / "sweep.jsonl")

        class _Killed(Exception):
            pass

        completions = []

        def kill_after_two(cell, payload):
            completions.append(cell.index)
            if len(completions) == 2:
                raise _Killed()

        with pytest.raises(_Killed):
            ParallelSweepExecutor(jobs=3).run(
                RegistryAttackFactory(name),
                cells,
                checkpoint_path=path,
                progress=kill_after_two,
            )
        resumed = ParallelSweepExecutor(jobs=3).run(
            RegistryAttackFactory(name), cells, checkpoint_path=path
        )
        assert resumed.resumed >= 2
        assert resumed.aggregate_json() == _serial_aggregate(name, params, seeds)


# -- randomized grids (Hypothesis) ------------------------------------------


class GridAttack(Attack):
    """Deterministic function of (seed, scale, offset); picklable."""

    name = "toy-grid"
    required_privilege = Privilege.HOST
    target = Target.ENDPOINT
    required_capabilities = (Capability.MANIPULATE_OWN_TRAFFIC,)
    impacts = (Impact.PERFORMANCE,)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        seed = int(params["seed"])
        scale = float(params.get("scale", 1.0))
        offset = int(params.get("offset", 0))
        value = ((seed * 2654435761) % 1013) * scale + offset
        return AttackResult(
            attack_name=self.name,
            success=(seed + offset) % 3 != 0,
            time_to_success=value,
            magnitude=value / 100.0,
            details={"seed": seed},
        )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8, unique=True
    ),
    scale=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    offset=st.integers(min_value=-5, max_value=5),
    jobs=st.integers(min_value=2, max_value=4),
)
def test_random_grids_never_violate_merge_order(seeds, scale, offset, jobs):
    """Aggregates and per-cell order match the serial run for any grid."""
    params = {"scale": scale, "offset": offset}
    cells = seed_cells(params, seeds)
    serial = serial_report(GridAttack(), cells)
    for n in (1, jobs):
        report = ParallelSweepExecutor(jobs=n).run(GridAttack(), cells)
        assert report.aggregate_json() == serial.aggregate_json()
        assert [c["index"] for c in report.cells] == [c["index"] for c in serial.cells]
        assert json.dumps(report.cells, sort_keys=True) == json.dumps(
            serial.cells, sort_keys=True
        )


# -- scenario parity grid ----------------------------------------------------
#
# A registered scenario must hash identically whether it runs serially
# or fanned over worker processes.  Two scenarios cover both a Blink
# workload binding and a derived-knob (PCC) binding.

PARITY_SCENARIOS = ["blink-analytical-web-search", "pcc-diurnal-sway"]


class TestScenarioParityGrid:
    @pytest.mark.parametrize("name", PARITY_SCENARIOS)
    def test_serial_vs_jobs_byte_identical(self, name):
        from repro.workloads.scenarios import run_scenario

        serial = run_scenario(name, jobs=1)
        fanned = run_scenario(name, jobs=3)
        assert serial.report_hash == fanned.report_hash
        assert (
            serial.report.aggregate_json() == fanned.report.aggregate_json()
        )
        assert serial.matches_golden is True
