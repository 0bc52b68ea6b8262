"""Tests for the Fig. 2 closed-form model and Monte-Carlo."""

import math

import pytest

from repro.blink.analysis import (
    capture_probability,
    captured_percentile,
    expected_hitting_time,
    fig2_experiment,
    fig2_headline,
    mean_captured,
    mean_crossing_time,
    minimum_qm,
    probability_at_least,
    simulate_capture,
    success_time_quantile,
    theory_curves,
    tr_qm_feasibility_table,
)
from repro.core.errors import ConfigurationError

QM, TR = 0.0525, 8.37


class TestClosedForm:
    def test_paper_formula_value(self):
        # p = 1 - (1-qm)^(tB/tR) at the full budget.
        p = capture_probability(510.0, QM, TR)
        assert p == pytest.approx(1.0 - (1.0 - QM) ** (510.0 / TR))
        assert p > 0.95

    def test_probability_zero_at_t0(self):
        assert capture_probability(0.0, QM, TR) == 0.0

    def test_probability_monotone_in_time(self):
        values = [capture_probability(t, QM, TR) for t in (10, 50, 100, 300)]
        assert values == sorted(values)

    def test_mean_curve_scales_with_cells(self):
        assert mean_captured(100.0, QM, TR, cells=64) == pytest.approx(
            2 * mean_captured(100.0, QM, TR, cells=32)
        )

    def test_percentile_ordering(self):
        p5 = captured_percentile(150.0, QM, TR, 5)
        p95 = captured_percentile(150.0, QM, TR, 95)
        assert p5 <= mean_captured(150.0, QM, TR) <= p95

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            capture_probability(-1.0, QM, TR)
        with pytest.raises(ConfigurationError):
            capture_probability(1.0, 0.0, TR)
        with pytest.raises(ConfigurationError):
            capture_probability(1.0, QM, 0.0)


class TestCrossingTimes:
    def test_mean_crossing_half_sample(self):
        # 64·p(t) = 32 at t = tR·ln(0.5)/ln(1-qm) ≈ 107.6 s.
        t = mean_crossing_time(32, QM, TR)
        assert t == pytest.approx(107.6, abs=0.5)

    def test_full_capture_never_in_mean(self):
        assert mean_crossing_time(64, QM, TR) == math.inf

    def test_expected_hitting_near_mean_crossing(self):
        hitting = expected_hitting_time(32, QM, TR)
        crossing = mean_crossing_time(32, QM, TR)
        assert abs(hitting - crossing) / crossing < 0.1

    def test_median_success_time_within_budget(self):
        t = success_time_quantile(32, QM, TR, quantile=0.5)
        assert t is not None
        assert 90 < t < 130

    def test_success_time_none_when_infeasible(self):
        assert success_time_quantile(64, 0.001, 60.0, horizon=100.0) is None

    def test_paper_claim_high_chance_by_200s(self):
        """'After 200 s, there is a high chance that at least 32
        monitored flows are malicious.'"""
        assert probability_at_least(32, 200.0, QM, TR) > 0.95


class TestMinimumQm:
    def test_longer_tr_needs_higher_qm(self):
        """'With longer tR, the attack is harder, i.e., requires
        higher qm.'"""
        table = tr_qm_feasibility_table([2.0, 5.0, 10.0, 20.0])
        qms = [qm for _, qm, _ in table]
        assert qms == sorted(qms)

    def test_minimum_qm_achieves_confidence(self):
        qm = minimum_qm(32, TR, confidence=0.9)
        assert probability_at_least(32, 510.0, qm, TR) >= 0.9
        # And slightly less traffic fails the bar.
        assert probability_at_least(32, 510.0, qm * 0.8, TR) < 0.9

    def test_fig2_qm_is_comfortably_sufficient(self):
        needed = minimum_qm(32, TR, confidence=0.95)
        assert needed < QM


class TestMonteCarlo:
    def test_simulation_monotone_nondecreasing(self):
        run = simulate_capture(QM, TR, seed=1)
        assert all(b >= a for a, b in zip(run.captured, run.captured[1:]))

    def test_simulation_matches_theory_mean(self):
        runs = [simulate_capture(QM, TR, seed=s) for s in range(30)]
        at_200 = [run.captured[200] for run in runs]
        expected = mean_captured(200.0, QM, TR)
        assert sum(at_200) / len(at_200) == pytest.approx(expected, rel=0.15)

    def test_deterministic_per_seed(self):
        a = simulate_capture(QM, TR, seed=9)
        b = simulate_capture(QM, TR, seed=9)
        assert a.captured == b.captured

    def test_crossing_time_consistent_with_path(self):
        run = simulate_capture(QM, TR, seed=2, threshold=32)
        if run.crossing_time is not None:
            index = int(run.crossing_time)
            assert run.captured[index + 1 if index + 1 < len(run.captured) else index] >= 32


class TestFig2Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_experiment(runs=25, seed=0)

    def test_attack_succeeds_in_most_runs(self, result):
        assert result.success_fraction > 0.9

    def test_simulated_crossing_near_theory(self, result):
        assert result.mean_crossing_simulated == pytest.approx(
            result.expected_hitting_theory, rel=0.2
        )

    def test_threshold_is_half_sample(self, result):
        assert result.threshold == 32

    def test_theory_envelope_contains_sample_paths(self, result):
        """At t=200s, most simulated paths lie within [p5, p95]."""
        idx = 200
        lo = result.theory.p5[idx]
        hi = result.theory.p95[idx]
        inside = sum(1 for run in result.runs if lo <= run.captured[idx] <= hi)
        assert inside / len(result.runs) >= 0.7


class TestFig2Headline:
    """The headline numbers alone equal :func:`fig2_experiment`'s."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize(
        "qm, horizon", [(QM, 510.0), (0.02, 250.0)], ids=["paper", "some-runs-fail"]
    )
    def test_matches_experiment(self, backend, qm, horizon):
        args = dict(qm=qm, tr=TR, cells=16, horizon=horizon, runs=12, seed=4,
                    backend=backend)
        full = fig2_experiment(**args)
        headline = fig2_headline(**args)
        for name in (
            "threshold",
            "mean_crossing_theory",
            "expected_hitting_theory",
            "median_success_time_theory",
            "crossing_times_simulated",
            "mean_crossing_simulated",
            "success_fraction",
        ):
            assert getattr(headline, name) == getattr(full, name), name
        assert headline.run_crossings == [run.crossing_time for run in full.runs]
        if qm != QM:
            assert 0.0 < headline.success_fraction < 1.0

    @pytest.mark.parametrize(
        "args", [dict(qm=0.0), dict(tr=0.0), dict(horizon=0.0)], ids=["qm", "tr", "horizon"]
    )
    def test_rejects_what_fig2_rejects(self, args):
        with pytest.raises(ConfigurationError):
            fig2_experiment(runs=2, **args)
        with pytest.raises(ConfigurationError):
            fig2_headline(runs=2, **args)
