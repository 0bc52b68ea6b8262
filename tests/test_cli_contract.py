"""Subprocess-level exit-code and ``--help`` contract for the CLI.

The in-process tests in ``test_cli.py`` pin behaviour through
:func:`repro.cli.main`; this module smoke-runs ``python -m repro`` as a
real subprocess so the contract also covers argparse wiring, the
``__main__`` entry point, and stderr routing — exactly what scripts and
the CI chaos drill depend on.

Exit-code contract:

========  =====================================================
``0``     success
``1``     the attack ran but did not succeed (or gave up)
``2``     usage error (bad args, unknown attack, bad seed list)
``3``     malformed ``--faults`` spec
``4``     ``--resume`` checkpoint belongs to a different sweep
========  =====================================================
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (subcommand, fragments its --help output must mention)
HELP_CONTRACT = [
    ([], ["list", "run", "faults", "fig2", "report"]),
    (["list"], ["usage:"]),
    (
        ["run"],
        [
            "--param",
            "--faults",
            "--seeds",
            "--resume",
            "--jobs",
            "--cache-dir",
            "--timeout",
            "--retries",
            "--trace",
        ],
    ),
    (["faults"], ["usage:"]),
    (["fig2"], ["--runs", "--seed"]),
    (["report"], ["--cache-dir"]),
]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )


class TestHelpContract:
    @pytest.mark.parametrize(
        "subcommand,fragments",
        HELP_CONTRACT,
        ids=["top"] + [h[0][0] for h in HELP_CONTRACT[1:]],
    )
    def test_help_exits_zero_and_documents_flags(self, subcommand, fragments):
        proc = run_cli(*subcommand, "--help")
        assert proc.returncode == 0
        for fragment in fragments:
            assert fragment in proc.stdout, (subcommand, fragment)
        assert proc.stderr == ""


class TestUsageErrors:
    def test_no_arguments_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage:" in proc.stderr

    @pytest.mark.parametrize("command", ["frobnicate", "serve", "submit"])
    def test_unknown_subcommand(self, command):
        proc = run_cli(command)
        assert proc.returncode == 2

    def test_unknown_attack(self):
        proc = run_cli("run", "no-such-attack")
        assert proc.returncode == 2
        assert "unknown attack" in proc.stderr

    def test_bad_seed_list(self):
        proc = run_cli("run", "blink-analytical", "--seeds", "0,banana")
        assert proc.returncode == 2

    def test_resume_without_seeds(self):
        proc = run_cli("run", "blink-analytical", "--resume", "x.jsonl")
        assert proc.returncode == 2
        assert "--resume requires --seeds" in proc.stderr

    def test_sweep_flags_without_seeds(self, tmp_path):
        """A single run rejects --jobs/--cache-dir instead of ignoring them."""
        cache = tmp_path / "cache"
        for flags in (
            ["--cache-dir", str(cache), "--jobs", "0"],
            ["--jobs", "2"],
            ["--cache-dir", str(cache)],
        ):
            proc = run_cli("run", "blink-analytical", "-p", "runs=2", *flags)
            assert proc.returncode == 2, flags
            assert "requires --seeds" in proc.stderr, flags
        assert not cache.exists()

    def test_scenario_jobs_zero_is_a_jobs_error(self):
        proc = run_cli("scenarios", "run", "pcc-diurnal-sway", "--jobs", "0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("invalid --jobs:")
        assert "failed to resolve" not in proc.stderr

    def test_jobs_zero_rejected(self):
        proc = run_cli(
            "run", "blink-analytical", "--seeds", "0,1", "--jobs", "0",
            "-p", "runs=1",
        )
        assert proc.returncode == 2
        assert "jobs" in proc.stderr

    def test_bad_jobs_env_rejected(self):
        proc = run_cli(
            "run", "blink-analytical", "--seeds", "0,1", "-p", "runs=1",
            env_extra={"REPRO_JOBS": "many"},
        )
        assert proc.returncode == 2

    def test_report_without_ledger_or_cache(self):
        proc = run_cli("report")
        assert proc.returncode == 2

    def test_bad_param_pair(self):
        proc = run_cli("run", "blink-analytical", "-p", "nonsense")
        assert proc.returncode == 2

    def test_no_traceback_on_usage_errors(self):
        for args in (
            [],
            ["run", "no-such-attack"],
            ["run", "blink-analytical", "--seeds", "0,banana"],
        ):
            proc = run_cli(*args)
            assert "Traceback" not in proc.stderr, args


class TestFaultAndCheckpointErrors:
    def test_bad_faults_spec_exits_3(self):
        proc = run_cli(
            "run", "blink-analytical", "--faults", "bogus:p=0.1", "-p", "runs=1"
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    def test_mismatched_checkpoint_exits_4(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        base = ["run", "blink-analytical", "-p", "runs=1", "--resume", path]
        assert run_cli(*base, "--seeds", "0,1").returncode == 0
        proc = run_cli(*base, "--seeds", "0,1,2")
        assert proc.returncode == 4
        assert "different sweep" in proc.stderr


class TestHappyPaths:
    def test_list_names_attacks(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        assert "blink-capture-analytical" in proc.stdout

    def test_failed_attack_exits_1(self):
        proc = run_cli(
            "run", "blink-analytical", "-p", "runs=2", "-p", "qm=0.002",
            "-p", "tr=30.0", "-p", "horizon=60.0",
        )
        assert proc.returncode == 1

    def test_parallel_cached_sweep_round_trip(self, tmp_path):
        """--jobs 2 + --cache-dir: cold run executes, warm run is all hits."""
        cache = str(tmp_path / "cache")
        args = [
            "run", "blink-analytical", "--seeds", "0,1,2", "--json",
            "--jobs", "2", "--cache-dir", cache, "-p", "runs=2",
        ]
        cold = run_cli(*args)
        assert cold.returncode == 0
        assert "executed 3" in cold.stderr
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert "cached 3" in warm.stderr
        assert warm.stdout == cold.stdout  # byte-identical aggregate JSON

        report = run_cli("report", "--cache-dir", cache)
        assert report.returncode == 0
        assert "blink-capture-analytical" in report.stdout
