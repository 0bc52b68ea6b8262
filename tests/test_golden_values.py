"""Golden-value regression tests for the paper's headline numerics.

The committed fixture ``tests/fixtures/golden_values.json`` pins the
closed-form Blink capture probability surface (Section 3.1's
``p = 1 − (1 − qm)^(t/tR)`` and its derived crossing/hitting times),
the PCC utility-equalisation oscillation amplitude (Section 4.2's
±5 % swing) and the bloom/FlowRadar/LossRadar pollution results
(Section 3.2, E10) to the exact floats the current implementation
produces, and the synthetic-CAIDA tR statistics behind E3 (Section
3.1's "for half of them the average time a flow remains sampled is
10 s", the median ~5 s) at the bench configuration.
A numeric refactor that silently drifts any of these figures fails
here before it can corrupt the reproduced figures.

Regenerating the fixture is a deliberate act: rerun the expressions in
this file and commit the diff alongside the change that justifies it.
"""

import json
import os

import pytest

from repro.attacks import PccOscillationAttack, attack_registry
from repro.blink.analysis import (
    capture_probability,
    expected_hitting_time,
    fig2_experiment,
    mean_crossing_time,
    minimum_qm,
    probability_at_least,
)
from repro.flows.caida import (
    SyntheticCaidaConfig,
    SyntheticCaidaTrace,
    calibrate_duration_model_for_tr,
)
from tests.test_lazy_imports import _CHEAP_CELLS

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_values.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestBlinkClosedForm:
    def test_capture_probability_surface(self, golden):
        for point in golden["blink"]["capture_grid"]:
            p = capture_probability(point["t"], point["qm"], point["tr"])
            assert p == pytest.approx(point["p"], rel=1e-12, abs=1e-300)
            tail = probability_at_least(32, point["t"], point["qm"], point["tr"], 64)
            assert tail == pytest.approx(
                point["p_at_least_32"], rel=1e-9, abs=1e-300
            )

    def test_paper_crossing_times(self, golden):
        blink = golden["blink"]
        assert mean_crossing_time(32, 0.0525, 8.37, 64) == pytest.approx(
            blink["mean_crossing_time_paper"], rel=1e-12
        )
        assert expected_hitting_time(32, 0.0525, 8.37, 64) == pytest.approx(
            blink["expected_hitting_time_paper"], rel=1e-12
        )
        # Sanity anchor against the paper itself: the mean capture of
        # half the 64-cell sample at qm=5.25 %, tR=8.37 s lands near
        # 107 s, comfortably inside the 8.5 min reset budget.
        assert 100.0 < blink["mean_crossing_time_paper"] < 115.0

    def test_minimum_qm_at_95_confidence(self, golden):
        assert minimum_qm(32, 8.37, 510.0, 64, 0.95) == pytest.approx(
            golden["blink"]["minimum_qm_95"], rel=1e-9
        )

    def test_fig2_monte_carlo_pinned(self, golden):
        pinned = golden["blink"]["fig2_runs10_seed0"]
        result = fig2_experiment(runs=10, seed=0)
        assert result.threshold == pinned["threshold"]
        assert result.mean_crossing_simulated == pytest.approx(
            pinned["mean_crossing_simulated"], rel=1e-12
        )
        assert result.success_fraction == pinned["success_fraction"]
        assert result.median_success_time_theory == pytest.approx(
            pinned["median_success_time_theory"], rel=1e-9
        )


class TestPccOscillation:
    def test_equalisation_amplitude_pinned(self, golden):
        pinned = golden["pcc"]["attack_mis400_seed0"]
        result = PccOscillationAttack().run(mis=400, warmup_mis=100, seed=0)
        assert result.success == pinned["success"]
        assert result.magnitude == pytest.approx(pinned["magnitude"], rel=1e-12)
        for key in (
            "oscillation_cv_attacked",
            "oscillation_cv_baseline",
            "rate_amplitude_attacked",
            "aggregate_swing_attacked",
            "epsilon_pinned_fraction",
        ):
            assert result.details[key] == pytest.approx(
                pinned[key], rel=1e-12
            ), key

    def test_amplitude_matches_paper_claim(self, golden):
        # Section 4.2: the equaliser pins epsilon at its 5 % cap — the
        # attacked oscillation CV sits at 0.05 and the peak-to-trough
        # rate amplitude at 10 % of the mean.
        pinned = golden["pcc"]["attack_mis400_seed0"]
        assert pinned["oscillation_cv_attacked"] == pytest.approx(0.05, abs=1e-6)
        assert pinned["rate_amplitude_attacked"] == pytest.approx(0.10, abs=1e-6)
        assert pinned["epsilon_pinned_fraction"] == 1.0


class TestSketchPollution:
    """E10 at the reduced sizes every attack family is smoke-run at."""

    @pytest.mark.parametrize(
        "name", ["bloom-saturation", "flowradar-overload", "lossradar-pollution"]
    )
    def test_seed0_details_pinned(self, golden, name):
        pinned = golden["sketches"][name]
        result = attack_registry()[name].run(seed=0, **_CHEAP_CELLS[name])
        assert result.success == pinned["success"]
        assert result.magnitude == pinned["magnitude"]
        assert result.details == pinned["details"]


class TestCaidaSampledTime:
    """E3 on ``benchmarks/bench_blink_tr_sweep.py``'s configuration, to
    the exact float."""

    def test_bench_backbone_pinned(self, golden):
        pinned = golden["caida"]["backbone_prefixes20_h200_seed7"]
        backbone = SyntheticCaidaTrace(
            SyntheticCaidaConfig(prefixes=20, horizon=200.0, seed=7)
        )
        assert backbone.top_prefix_report() == pinned["top_prefix_report"]
        assert backbone.summary() == pinned["summary"]

    def test_fig2_calibration_pinned(self, golden):
        model = calibrate_duration_model_for_tr(
            8.37, horizon=120, arrival_rate=4.0, seed=0
        )
        assert model.median == golden["caida"]["calibrated_median_tr8_37_seed0"]
