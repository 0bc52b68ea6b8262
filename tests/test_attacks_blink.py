"""Tests for the Blink capture attacks (E1/E2/E4)."""

import json

import pytest

from repro.attacks.blink_attack import BlinkAnalyticalAttack, BlinkCaptureAttack
from repro.blink.pipeline import BlinkSwitch
from repro.core.entities import Privilege
from repro.core.errors import PrivilegeError


class TestAnalyticalAttack:
    @pytest.fixture(scope="class")
    def result(self):
        return BlinkAnalyticalAttack().run(runs=20, seed=1)

    def test_succeeds_with_paper_parameters(self, result):
        assert result.success
        assert result.magnitude > 0.9  # success fraction across runs

    def test_reports_theory_numbers(self, result):
        details = result.details
        assert details["mean_crossing_theory"] == pytest.approx(107.6, abs=1.0)
        assert details["threshold"] == 32
        assert details["median_success_time_theory"] < 510.0

    def test_time_to_success_within_budget(self, result):
        assert result.time_to_success is not None
        assert result.time_to_success < 510.0

    def test_host_privilege_suffices(self):
        # The paper's point: a HOST-level attacker is enough.
        result = BlinkAnalyticalAttack().run(Privilege.HOST, runs=5)
        assert result.success

    def test_weak_attack_fails(self):
        result = BlinkAnalyticalAttack().run(qm=0.002, tr=20.0, runs=10, horizon=120.0)
        assert not result.success


class TestPacketLevelAttack:
    @pytest.fixture(scope="class")
    def result(self):
        # Scaled-down but structurally identical to the paper's
        # 2000/105-flow experiment: same qm ≈ 0.052, and the
        # malicious-flow count scaled with the cell count so the hash
        # coverage ceiling (cells·(1−e^{−flows/cells})) still exceeds
        # the majority threshold, as 105 flows do for 64 cells.
        return BlinkCaptureAttack().run(
            horizon=300.0,
            legitimate_flows=500,
            malicious_flows=26,
            cells=16,
            duration_median=3.0,
            seed=0,
            sample_interval=5.0,
        )

    def test_attack_triggers_reroute(self, result):
        assert result.success
        assert result.details["reroute_events"] >= 1

    def test_capture_grows_to_majority(self, result):
        assert result.details["time_to_half_sample"] is not None

    def test_reroute_dominated_by_malicious_flows(self, result):
        assert result.details["malicious_at_first_reroute"] >= 8

    def test_occupancy_series_monotone_shape(self, result):
        series = result.details["occupancy_series"]
        values = list(series.values)
        # Ratchet dynamics: the max is reached late, not early.
        peak_index = values.index(max(values))
        assert peak_index > len(values) // 4

    def test_measured_tr_reported(self, result):
        assert result.details["measured_tr"] is not None
        assert result.details["measured_tr"] > 2.0


PREFIX = "198.51.100.0/24"


def _reference_payload(**params):
    """The capture attack on its reference path, as a journaled payload.

    The whole workload is materialised as a :class:`Trace` by
    ``emit_trace`` (on the start-sorted specs on the workload branch,
    so ties go by start position), passed record by record through the
    telemetry fault's ``degrade_record``, and replayed through
    ``BlinkSwitch.replay_trace``.  The attack's feed (``feed_specs``)
    must give the same payload, byte for byte.
    """
    from repro.attacks import blink_attack
    from repro.core.attack import AttackResult
    from repro.core.metrics import first_crossing_time
    from repro.defenses.blink_defense import supervised_blink
    from repro.faults import TelemetryFault, coerce_plan
    from repro.flows.generators import (
        DurationDistribution,
        emit_trace,
        malicious_flow_schedule,
        summarize_workload,
    )
    from repro.runner.checkpoint import result_payload
    from repro.workloads.engine import iter_workload_specs

    horizon = float(params.get("horizon", 510.0))
    legitimate_flows = int(params.get("legitimate_flows", 2000))
    malicious_flows = int(params.get("malicious_flows", 105))
    seed = int(params.get("seed", 0))
    cells = int(params.get("cells", 64))
    defended = bool(params.get("defended", False))
    plan = coerce_plan(params.get("faults"), seed=int(params.get("fault_seed", 0)))
    workload = params.get("workload")
    if workload:
        wparams = dict(params.get("workload_params") or {})
        legit = list(iter_workload_specs(workload, seed=seed, horizon=horizon, **wparams))
        bad = malicious_flow_schedule(
            PREFIX, count=malicious_flows, horizon=horizon, seed=seed + 1,
            spread_start=2.0,
        )
        specs = sorted(legit + bad, key=lambda s: s.start)
        trace = emit_trace(specs, seed=seed + 2, name="blink-attack")
    else:
        specs = blink_attack.blink_attack_specs(
            destination_prefix=PREFIX,
            horizon=horizon,
            legitimate_flows=legitimate_flows,
            malicious_flows=malicious_flows,
            duration_model=DurationDistribution(
                median=float(params.get("duration_median", 4.0))
            ),
            seed=seed,
        )
        trace = emit_trace(specs, seed=seed + 2, name="blink-attack")
    summary = summarize_workload(specs, trace)
    fault = None
    if plan is not None:
        fault = TelemetryFault(plan, role="blink.telemetry")
        trace = [r for r in map(fault.degrade_record, trace) if r is not None]
    gap = float(params.get("min_plausible_gap", 1.0))
    switch = BlinkSwitch(
        {PREFIX: ["nh-primary", "nh-backup"]},
        cells=cells,
        supervise=(
            (lambda monitor: supervised_blink(monitor, min_plausible_gap=gap))
            if defended else None
        ),
    )
    series = switch.replay_trace(
        trace, sample_interval=float(params.get("sample_interval", 1.0))
    )[PREFIX]
    monitor = switch.monitors[PREFIX]
    reroutes = monitor.reroutes
    released = switch.decisions
    stats = monitor.selector.stats
    details = {
        "time_to_half_sample": first_crossing_time(series.times, series.values, cells // 2),
        "reroute_events": len(reroutes),
        "first_reroute": reroutes[0].time if reroutes else None,
        "malicious_at_first_reroute": (
            reroutes[0].malicious_monitored_ground_truth if reroutes else None
        ),
        "measured_tr": (
            stats.mean_legit_occupancy() if stats.legit_occupancy_durations else None
        ),
        "qm": summary.qm if workload else malicious_flows / legitimate_flows,
        "workload_class": workload or None,
        "packets": len(trace),
        "occupancy_series": series,
        "workload": summary,
    }
    if fault is not None:
        details["fault_plan"] = plan.to_spec()
        details["fault_seed"] = plan.seed
        details.update(fault.counters())
    if defended:
        details["defended"] = True
        details["reroutes_released"] = len(released)
        details["reroutes_vetoed"] = len(switch.drivers[PREFIX].suppressed)
    return result_payload(
        AttackResult(
            attack_name=BlinkCaptureAttack.name,
            success=bool(released) if defended else bool(reroutes),
            time_to_success=(
                released[0].time if defended and released
                else reroutes[0].time if reroutes else None
            ),
            magnitude=max(series.values) / cells if len(series) else 0.0,
            details=details,
        )
    )


def _payload_json(payload):
    return json.dumps(payload, sort_keys=True)


_DEFAULT_BRANCH = dict(
    horizon=40.0, legitimate_flows=60, malicious_flows=40, cells=16,
    duration_median=2.0, seed=3,
)
_WORKLOAD_BRANCH = dict(
    horizon=40.0, cells=16, malicious_flows=24, seed=1, workload="web-search",
    workload_params={"size_scale": 0.05, "max_packets": 400},
)
_FAULTS = "telemetry-drop:p=0.1;telemetry-garble:p=0.2"


class TestMergedFeedParity:
    """The merged column feed against a materialised, replayed trace."""

    @pytest.mark.parametrize(
        "params",
        [
            _DEFAULT_BRANCH,
            dict(_DEFAULT_BRANCH, faults=_FAULTS, fault_seed=5),
            dict(_DEFAULT_BRANCH, defended=True),
            _WORKLOAD_BRANCH,
            dict(_WORKLOAD_BRANCH, faults=_FAULTS),
            dict(_WORKLOAD_BRANCH, workload="flash-crowd", defended=True, seed=0),
            dict(_DEFAULT_BRANCH, defended=True, min_plausible_gap=1e-6),
            dict(_WORKLOAD_BRANCH, workload="flash-crowd", defended=True, seed=0,
                 min_plausible_gap=1e-6),
            dict(_WORKLOAD_BRANCH, defended=True),
            dict(_WORKLOAD_BRANCH, defended=True, faults=_FAULTS),
        ],
        ids=[
            "default", "default-faults", "default-defended",
            "workload", "workload-faults", "flash-crowd-defended",
            "default-defended-released", "flash-crowd-defended-rate-limited",
            "workload-defended", "workload-defended-faults",
        ],
    )
    def test_payload_matches_reference(self, params):
        from repro.obs import metrics as obs_metrics
        from repro.runner.checkpoint import result_payload

        registry = obs_metrics.MetricRegistry()
        with obs_metrics.activate(registry):
            result = BlinkCaptureAttack().execute(Privilege.HOST, **params)
        merged = result_payload(result)
        reference = _reference_payload(**params)
        assert _payload_json(merged) == _payload_json(reference)
        details = merged["details"]
        assert details["packets"] > 0
        # Fault-free runs, defended or not, solve the selector per cell;
        # a telemetry fault takes the merged feed.
        solved = registry.snapshot().get("counter.blink.solve.cells", 0)
        assert (solved > 0) == ("faults" not in params)
        if "faults" in params:
            assert details["telemetry_dropped"] > 0
            assert details["telemetry_garbled"] > 0
        if params.get("min_plausible_gap") == 1e-6:
            assert details["reroutes_released"] >= 1
        if params.get("workload") == "flash-crowd" and "min_plausible_gap" in params:
            # Four reroutes inside the 60 s window: the operating range
            # admits three.
            assert details["reroute_events"] == 4
            assert details["reroutes_released"] == 3
            assert details["reroutes_vetoed"] == 1

    def test_equal_times_keep_spec_order(self, monkeypatch):
        """Ties go by spec index on the default branch, not by start.

        Flow 1 starts first and ends with a FIN at t=1.0; flow 0 (an
        attack flow in the same selector cell) starts at t=1.0.  By spec
        index, flow 0's first packet meets the still-occupied cell and
        is ignored, so the attack flow is installed half a second later,
        after the t=1.25 sample.
        """
        from repro.attacks import blink_attack
        from repro.flows.flow import FiveTuple
        from repro.flows.generators import FlowSpec
        from repro.runner.checkpoint import result_payload

        selector = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16).monitors[PREFIX].selector
        legit = FiveTuple("10.9.0.1", "198.51.100.7", 40000, 443, 6)
        cell = legit.cell_index(16, selector.hash_seed)
        attacker = next(
            flow
            for flow in (
                FiveTuple(f"203.0.113.{i}", "198.51.100.9", 50000 + i, 443, 6)
                for i in range(1, 250)
            )
            if flow.cell_index(16, selector.hash_seed) == cell
        )
        specs = [
            FlowSpec(attacker, start=1.0, duration=5.0, packet_rate=2.0, malicious=True,
                     retransmit_probability=0.5, sends_fin=False, constant_rate=True),
            FlowSpec(legit, start=0.0, duration=1.0, packet_rate=2.0,
                     constant_rate=True),
        ]
        monkeypatch.setattr(blink_attack, "blink_attack_specs", lambda **_: list(specs))
        params = dict(horizon=6.0, legitimate_flows=1, malicious_flows=1, cells=16,
                      sample_interval=0.25)
        result = BlinkCaptureAttack().execute(Privilege.HOST, **params)
        merged = result_payload(result)
        assert _payload_json(merged) == _payload_json(_reference_payload(**params))
        series = result.details["occupancy_series"]
        assert dict(zip(series.times, series.values))[1.25] == 0
        assert max(series.values) == 1
