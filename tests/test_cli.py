"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import ATTACK_ALIASES, _attack_registry, _parse_params, main


class TestRegistry:
    def test_covers_all_case_studies(self):
        registry = _attack_registry()
        for needle in (
            "blink-capture-analytical",
            "pytheas-report-poisoning",
            "pcc-utility-equalisation",
            "traceroute-icmp-rewrite",
            "sppifo-adversarial-ranks",
            "flowradar-overload",
            "dapper-misdiagnosis",
            "ron-probe-divert",
            "egress-passive-divert",
            "silkroad-state-exhaustion",
            "innet-bnn-evasion",
        ):
            assert needle in registry

    def test_names_are_unique(self):
        registry = _attack_registry()
        assert len(registry) == len(set(registry))


class TestParamParsing:
    def test_type_coercion(self):
        params = _parse_params(["a=1", "b=2.5", "c=true", "d=hello", "e=false"])
        assert params == {"a": 1, "b": 2.5, "c": True, "d": "hello", "e": False}

    def test_invalid_pair_rejected(self):
        with pytest.raises(SystemExit):
            _parse_params(["nonsense"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "blink-capture-analytical" in out
        assert "OPERATOR" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "107" in out  # theory crossing

    def test_run_success_exit_code(self, capsys):
        code = main(["run", "ron-probe-divert"])
        assert code == 0
        assert "success: True" in capsys.readouterr().out

    def test_run_with_params(self, capsys):
        code = main(
            ["run", "blink-capture-analytical", "-p", "runs=5", "-p", "qm=0.002",
             "-p", "tr=30.0", "-p", "horizon=60.0"]
        )
        # Deliberately weak attack: non-zero exit.
        assert code == 1
        assert "success: False" in capsys.readouterr().out

    def test_unknown_attack(self, capsys):
        assert main(["run", "no-such-attack"]) == 2

    def test_aliases_resolve_to_registered_attacks(self):
        registry = _attack_registry()
        for alias, target in ATTACK_ALIASES.items():
            assert alias not in registry  # aliases must not shadow real names
            assert target in registry

    def test_run_alias(self, capsys):
        code = main(
            ["run", "blink-analytical", "-p", "runs=5", "-p", "qm=0.3",
             "-p", "tr=8.37", "-p", "horizon=600.0"]
        )
        assert code == 0
        assert "blink-capture-analytical" in capsys.readouterr().out


class TestJsonOutput:
    def test_run_json(self, capsys):
        code = main(
            ["run", "blink-analytical", "--json", "-p", "runs=5", "-p", "qm=0.3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack"] == "blink-capture-analytical"
        assert payload["success"] is True
        assert payload["wall_seconds"] >= 0.0
        assert isinstance(payload["details"], dict)

    def test_fig2_json(self, capsys):
        assert main(["fig2", "--runs", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 32
        assert payload["mean_crossing_theory_s"] == pytest.approx(107, abs=5)


class TestTraceAndReport:
    def test_run_trace_then_report(self, capsys, tmp_path):
        path = tmp_path / "ledger.jsonl"
        code = main(
            ["run", "blink-capture", "--trace", str(path),
             "-p", "horizon=40.0", "-p", "legitimate_flows=40",
             "-p", "malicious_flows=40", "-p", "cells=16", "-p", "seed=1"]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["record"] for r in records}
        assert {"run", "metrics", "event"} <= kinds
        run = next(r for r in records if r["record"] == "run")
        assert run["attack"] == "blink-capture-packet-level"
        assert run["seed"] == 1
        assert any(
            r["record"] == "event" and r["kind"] == "span" for r in records
        )
        assert any(
            r["record"] == "event" and r["kind"] == "metrics.snapshot"
            for r in records
        )
        capsys.readouterr()  # discard the run output

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "blink-capture-packet-level" in out
        assert "event log" in out

    def test_run_trace_csv(self, capsys, tmp_path):
        path = tmp_path / "ledger.csv"
        code = main(
            ["run", "blink-analytical", "--trace", str(path),
             "-p", "runs=5", "-p", "qm=0.3"]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("kind,t")
        assert len(lines) >= 2

    def test_run_metrics_prints_snapshot(self, capsys):
        code = main(
            ["run", "blink-capture", "--metrics",
             "-p", "horizon=40.0", "-p", "legitimate_flows=40",
             "-p", "malicious_flows=40", "-p", "cells=16", "-p", "seed=1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics: run" in out
        assert "gauge.blink." in out

    def test_report_missing_file(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "no such ledger" in capsys.readouterr().err

    def test_report_bad_ledger(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["report", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestFaultsCommand:
    def test_faults_lists_kinds_and_grammar(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        for kind in ("link-flap", "telemetry-drop", "clock-skew", "timer-drop"):
            assert kind in out
        assert "kind:key=value" in out

    def test_bad_faults_spec_exits_3(self, capsys):
        code = main(
            ["run", "blink-analytical", "--faults", "telemetry-drip:p=0.1"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "unknown fault kind" in err
        assert "python -m repro faults" in err

    def test_bad_fault_param_exits_3(self, capsys):
        code = main(["run", "blink-analytical", "--faults", "telemetry-drop:p=2.0"])
        assert code == 3
        assert "[0, 1]" in capsys.readouterr().err

    def test_faults_forwarded_to_attack(self, capsys):
        code = main(
            ["run", "blink-capture", "--json", "--faults", "telemetry-drop:p=0.2",
             "--fault-seed", "5", "-p", "horizon=40.0", "-p", "legitimate_flows=40",
             "-p", "malicious_flows=40", "-p", "cells=16"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["fault_plan"] == "telemetry-drop:p=0.2"
        assert payload["details"]["fault_seed"] == 5
        assert payload["details"]["telemetry_dropped"] > 0

    def test_fault_drill_deterministic_across_invocations(self, capsys):
        args = [
            "run", "blink-capture", "--json", "--faults", "telemetry-drop:p=0.2",
            "--fault-seed", "3", "-p", "horizon=40.0", "-p", "legitimate_flows=40",
            "-p", "malicious_flows=40", "-p", "cells=16",
        ]
        outputs = []
        for _ in range(2):
            main(args)
            payload = json.loads(capsys.readouterr().out)
            payload.pop("wall_seconds")
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]


class TestSweepCommands:
    BASE = ["run", "blink-analytical", "-p", "runs=5", "-p", "qm=0.3"]

    def test_sweep_over_seeds(self, capsys):
        assert main(self.BASE + ["--seeds", "0,1,2"]) == 0
        out = capsys.readouterr().out
        assert "sweep: blink-capture-analytical" in out
        assert "executed 3, resumed 0, cached 0, failed 0" in out

    def test_sweep_json_resume_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        args = self.BASE + ["--seeds", "0,1", "--json", "--resume", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "resumed 2" in captured.err

    def test_resume_requires_seeds(self, capsys, tmp_path):
        code = main(self.BASE + ["--resume", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "--resume requires --seeds" in capsys.readouterr().err

    def test_mismatched_checkpoint_exits_4(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--seeds", "0,1", "--resume", str(path)]) == 0
        capsys.readouterr()
        code = main(self.BASE + ["--seeds", "0,1,2", "--resume", str(path)])
        assert code == 4
        assert "different sweep" in capsys.readouterr().err

    def test_bad_seed_list_exits_2(self, capsys):
        assert main(self.BASE + ["--seeds", "0,banana"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_timeout_gives_up_with_exit_1(self, capsys):
        code = main(
            ["run", "pcc-oscillation", "--timeout", "0.05", "-p", "mis=5000"]
        )
        assert code == 1
        assert "timed out" in capsys.readouterr().err


class TestSchedulerAndProfile:
    @pytest.mark.parametrize(
        "command",
        [["run", "ron-probe-divert"], ["scenarios", "run", "blink-web-search"]],
        ids=["run", "scenarios-run"],
    )
    @pytest.mark.parametrize(
        "flag",
        [["--scheduler", "calendar"], ["--shards", "2"], ["--adaptive-window"]],
        ids=["scheduler", "shards", "adaptive-window"],
    )
    def test_bad_engine_knob_env_exits_2(self, capsys, command, flag):
        # The engine knobs are keyword arguments of the simulation
        # drivers, not options: argparse rejects them as usage errors.
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_run_profile_writes_pstats_and_prints_hotspots(
        self, capsys, tmp_path
    ):
        import pstats

        target = tmp_path / "run.prof"
        code = main(["run", "ron-probe-divert", "--profile", str(target)])
        assert code == 0
        err = capsys.readouterr().err
        assert "cumulative" in err  # top-20 table printed to stderr
        assert f"profile written to {target}" in err
        # The dump is a loadable pstats file with real entries.
        stats = pstats.Stats(str(target))
        assert stats.total_calls > 0

    def test_run_profile_unwritable_path_exits_2(self, capsys, tmp_path):
        code = main(
            ["run", "ron-probe-divert", "--profile", str(tmp_path / "no" / "x.prof")]
        )
        assert code == 2
        assert "cannot write profile" in capsys.readouterr().err
