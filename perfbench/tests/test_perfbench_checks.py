"""The correctness check, the fingerprint and the metric tables."""

import json
import os

import pytest

import calibrate
import fingerprint
import layers
import run
import steadiness
import workloads
from repro.obs.metrics import MetricRegistry
from repro.netsim.forwarding import ForwardingReport
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, Rep, check

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def reps(*digests):
    return [Rep(setup_s=0.1, run_s=1.0, digest=d, work=1) for d in digests]


class TestCheck:
    workload = WORKLOADS["e2-blink"]
    good = PINNED["e2-blink"]

    def test_pinned_digest_passes(self):
        assert check(self.workload, DEFAULT_SEED, reps(self.good, self.good), self.good) == []

    def test_corrupted_digest_is_rejected(self):
        bad = ("0" if self.good[0] != "0" else "1") + self.good[1:]
        problems = check(self.workload, DEFAULT_SEED, reps(bad, bad), bad)
        assert len(problems) == 1 and "pinned" in problems[0]

    def test_pinned_digest_applies_to_the_default_seed_only(self):
        assert check(self.workload, DEFAULT_SEED + 1, reps("ab", "ab"), "ab") == []

    def test_disagreeing_repetitions_are_rejected(self):
        problems = check(self.workload, 5, reps("ab", "cd"), "ab")
        assert any("disagree" in p for p in problems)

    def test_reference_mismatch_is_rejected(self):
        problems = check(self.workload, 5, reps("ab", "ab"), "cd")
        assert any("reference" in p for p in problems)

    def test_both_e2_workloads_pin_the_same_digest(self):
        assert PINNED["e2-blink"] == PINNED["e2-blink-2shard"]

    def test_failures_count_repetitions_and_the_verification(self, capsys):
        bad = reps(self.good, self.good, "x")
        bad[0].problems.append("never rerouted")
        assert run._failures(self.workload, DEFAULT_SEED, bad, self.good) == 2
        assert "never rerouted" in capsys.readouterr().out


class TestScenarioSeeds:
    def test_default_seed_runs_the_registered_seeds(self):
        from repro.workloads.scenarios import resolve_scenario

        for spec in workloads.scenario_specs(DEFAULT_SEED):
            assert spec.seeds == resolve_scenario(spec.name).seeds

    def test_other_seeds_move_every_scenario(self):
        base = workloads.scenario_specs(DEFAULT_SEED)
        moved = workloads.scenario_specs(3)
        assert len(moved) == 9
        for a, b in zip(base, moved):
            assert b.seeds == tuple(s + 3 * workloads.SCENARIO_SEED_STRIDE for s in a.seeds)


class TestFingerprint:
    def test_every_field_is_present(self):
        stamp = fingerprint.fingerprint(ROOT, 2)
        assert set(stamp) == set(fingerprint.FIELDS)
        assert stamp["nproc"] >= 1
        assert stamp["shards"] == 2
        assert len(stamp["src_digest"]) == 64
        assert stamp["scheduler"] and stamp["backend"] and stamp["python"] and stamp["cpu_model"]

    def test_git_sha_without_and_with_git_metadata(self, tmp_path):
        assert fingerprint.git_sha(str(tmp_path)) is None
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("abc123\n")
        assert fingerprint.git_sha(str(tmp_path)) == "abc123"

    def test_src_digest_tracks_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        first = fingerprint.src_digest(str(tmp_path))
        (tmp_path / "a.py").write_text("x = 2\n")
        assert fingerprint.src_digest(str(tmp_path)) != first


class TestMetricTables:
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
        assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mib"]

    def test_layer_values_cover_every_metric_but_the_overhead(self):
        report = ForwardingReport(
            report_hash="h", flows=3, delivered=7, events=10, shards=2,
            scheduler="heap", adaptive_window=False, windows=4,
            per_shard_events=[6, 4],
        )
        values = layers.layer_values({}, MetricRegistry(), report)
        names = [name for name, _unit, _better in layers.METRICS]
        assert sorted(values) == sorted(n for n in names if n != "tracing.overhead")
        assert values["forwarding.max_shard_share"] == pytest.approx(0.6)
        assert values["forwarding.delivered"] == 7
        assert values["blink.reroutes"] == 0


class TestRepeat:
    def test_minimum_is_honoured_and_every_call_is_bracketed(self):
        calibration = calibrate.Calibration()
        assert len(run.repeat(lambda: 1, 0.0, 3, calibration)) == 3
        assert len(calibration.points) == 4
        assert len(calibration.factors()) == 3

    def test_stops_before_overrunning(self):
        calls = run.repeat(lambda: None, 0.05, 1)
        assert len(calls) >= 1


class TestCalibration:
    def test_each_repetition_uses_the_mean_of_its_two_points(self):
        calibration = calibrate.Calibration()
        calibration.points = [calibrate.REFERENCE_S, 3 * calibrate.REFERENCE_S, calibrate.REFERENCE_S]
        assert calibration.factors() == pytest.approx([0.5, 0.5])

    def test_kernel_takes_measurable_time(self):
        assert calibrate.kernel() > 0


class TestSteadiness:
    def stats(self, median, spread):
        return {"median": median, "q1": 0.0, "q3": 0.0, "spread": spread}

    def test_sets_must_agree_in_either_direction(self):
        slower = steadiness.judge([self.stats(1.0, 0.0), self.stats(1.3, 0.0)], 0.25)
        faster = steadiness.judge([self.stats(1.0, 0.0), self.stats(0.7, 0.0)], 0.25)
        close = steadiness.judge([self.stats(1.0, 0.0), self.stats(0.8, 0.0)], 0.25)
        assert not slower["sets_agree"]
        assert not faster["sets_agree"]
        assert close["sets_agree"]

    def test_every_metric_is_held_to_its_bound(self):
        spec = {"end_to_end": [{"name": "run_s", "bound": 0.25}, {"name": "setup_s", "bound": 0.25}]}
        runs = [{"correct": True, "failed": 0, "metrics": {"run_s": 1.0, "setup_s": v}, "wall": {"run_s": 1.0, "setup_s": v}}
                for v in (1.0, 1.0, 2.0, 2.0)]
        summary = steadiness.summarize(spec, {"w": [runs]})
        setup = summary["w"]["metrics"]["setup_s"]
        assert setup["sets"][0]["spread"] > 0.25
        assert not setup["spread_within_bound"]
