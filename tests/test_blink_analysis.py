"""Tests for the Fig. 2 closed-form model and Monte-Carlo."""

import bisect
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.blink.analysis as analysis
from repro.blink.analysis import (
    _exact_binomial_quantile,
    binomial_quantile,
    binomial_tail,
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


    def test_one_cell_crosses_at_its_capture(self):
        # cells // 2 == 0: the crossing is the cell's capture, if any.
        captured = simulate_capture(0.3, 5.0, cells=1, seed=0)
        assert captured.crossing_time == 12.031601283034082
        assert simulate_capture(0.001, 5.0, cells=1, seed=0).crossing_time is None


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

    @pytest.mark.parametrize(
        "qm, horizon", [(QM, 510.0), (0.02, 250.0)], ids=["paper", "some-runs-fail"]
    )
    def test_matches_experiment(self, qm, horizon):
        args = dict(qm=qm, tr=TR, cells=16, horizon=horizon, runs=12, seed=4)
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


@functools.lru_cache(maxsize=32)
def reference_cdf(n, p):
    """P(X <= k) for k = 0..n as exact fractions of the float p."""
    exact = Fraction(p)
    weights = (math.comb(n, i) * exact**i * (1 - exact) ** (n - i) for i in range(n + 1))
    return tuple(itertools.accumulate(weights))


def reference_tail(n, p, k):
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return float(1 - reference_cdf(n, p)[k - 1])


def reference_quantile(n, p, q):
    """Smallest k with P(X <= k) >= q, in exact arithmetic."""
    return bisect.bisect_left(reference_cdf(n, p), Fraction(q))


SIZES = (1, 2, 12, 16, 64)
PROBABILITIES = (0.0, 1e-300, 0.3, 1.0 - 1e-12, 1.0)
QUANTILES = (0.05, 0.5, 0.95)


class TestBinomialKernel:
    """The in-house binomial against exact rational arithmetic."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_tail_is_correctly_rounded(self, n, p):
        for k in range(-1, n + 2):
            assert binomial_tail(n, k, p) == reference_tail(n, p, k), k

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_quantile_is_exact(self, n, p):
        for q in QUANTILES + (0.0, 1.0):
            expected = reference_quantile(n, p, q)
            assert binomial_quantile(n, p, q) == expected, q
            assert _exact_binomial_quantile(n, p, q) == expected, q
        # 0 and 1 reach the ends of the support that has mass.
        assert binomial_quantile(n, p, 0.0) == 0
        assert binomial_quantile(n, p, 1.0) == (n if p > 0 else 0)

    @pytest.mark.parametrize("n, p", [(2, 0.5), (16, 0.3), (64, 0.0525), (64, 0.7)])
    def test_quantile_at_rounded_cdf_values(self, n, p):
        """q equal to a CDF value rounded to float: the float CDF
        cannot tell which side of q the true CDF lies, the integers
        can."""
        for cdf in reference_cdf(n, p)[:-1]:
            for q in (float(cdf), math.nextafter(float(cdf), 1.0)):
                assert binomial_quantile(n, p, q) == reference_quantile(n, p, q), q

    def test_large_sample(self):
        """2048 cells: C(n, i) alone overflows a float here."""
        n, p = 2048, 0.375
        with pytest.raises(OverflowError):
            math.comb(n, n // 2) * p ** (n // 2)
        for k in (1, 700, 768, 800, 1024, 2048):
            assert binomial_tail(n, k, p) == reference_tail(n, p, k), k
        for q in QUANTILES:
            assert binomial_quantile(n, p, q) == reference_quantile(n, p, q), q
        assert captured_percentile(510.0, QM, TR, 95.0, cells=n) <= n
        assert probability_at_least(n // 2, 510.0, QM, TR, cells=n) > 0.99


class TestPercentileEdges:
    @pytest.mark.parametrize("t", [0.0, 10.0, 200.0, 510.0])
    def test_zeroth_percentile_is_zero(self, t):
        assert captured_percentile(t, QM, TR, 0.0) == 0.0

    def test_hundredth_percentile_at_start_is_zero(self):
        assert captured_percentile(0.0, QM, TR, 100.0) == 0.0

    def test_hundredth_percentile_later_is_every_cell(self):
        assert captured_percentile(10.0, QM, TR, 100.0) == 64.0


class TestMatchesFormerKernel:
    """Values the model gave when scipy.stats.binom evaluated it."""

    def test_median_success_time(self):
        assert success_time_quantile(32, QM, TR) == 105.18670484977541

    @pytest.mark.parametrize(
        "tr, expected",
        [(11.082797427652734, 139.27872663469037), (6.4719827586206895, 81.3341147220872)],
        ids=["web-search", "data-mining"],
    )
    def test_analytical_scenario_cells(self, tr, expected):
        # The tR the two blink-analytical scenarios calibrate, over
        # their 300 s horizon.
        assert success_time_quantile(32, QM, tr, horizon=300.0) == expected

    def test_minimum_qm(self):
        assert minimum_qm(32, TR) == 0.011061008640759264
        assert minimum_qm(32, 20.0, confidence=0.95) == 0.03470998822202571

    def test_percentile_grid(self):
        grid = [
            [captured_percentile(t, QM, TR, q) for q in (5.0, 50.0, 95.0)]
            for t in (0.0, 1.0, 10.0, 50.0, 107.5, 200.0, 510.0)
        ]
        assert grid == [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0],
            [1.0, 4.0, 7.0],
            [12.0, 18.0, 24.0],
            [25.0, 32.0, 39.0],
            [40.0, 46.0, 52.0],
            [59.0, 62.0, 64.0],
        ]


def fixed_success_time(k, qm, tr, cells, quantile, horizon):
    """:func:`success_time_quantile` as a fixed 60-step bisection."""
    if probability_at_least(k, horizon, qm, tr, cells) < quantile:
        return None
    lo, hi = 0.0, horizon
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if probability_at_least(k, mid, qm, tr, cells) >= quantile:
            hi = mid
        else:
            lo = mid
    return hi


def fixed_minimum_qm(k, tr, budget, cells, confidence):
    """:func:`minimum_qm` as a fixed 80-step bisection."""
    lo, hi = 1e-6, 1.0 - 1e-9
    if probability_at_least(k, budget, hi, tr, cells) < confidence:
        raise ConfigurationError("unreachable even with qm ≈ 1")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if probability_at_least(k, budget, mid, tr, cells) >= confidence:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(call):
    try:
        return call()
    except ConfigurationError as exc:
        return type(exc)


class TestBisectionStopsAtUlpWidth:
    """The bisections stop once a step can no longer move an end, and
    return the float the fixed-count loop returns."""

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(min_value=-1e6, max_value=1e6),
        span_ulps=st.one_of(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=5, max_value=2**60),
        ),
        cut=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        halvings=st.integers(min_value=0, max_value=90),
    )
    def test_bisect_equals_fixed_loop(self, lo, span_ulps, cut, halvings):
        hi = lo + span_ulps * math.ulp(lo)
        if span_ulps <= 4:
            hi = lo
            for _ in range(span_ulps):
                hi = math.nextafter(hi, math.inf)
        threshold = lo + cut * (hi - lo)  # cut = 0: the initial lo is reached

        def reached(x):
            return x >= threshold

        expected_lo, expected_hi = lo, hi
        for _ in range(halvings):
            mid = (expected_lo + expected_hi) / 2.0
            if reached(mid):
                expected_hi = mid
            else:
                expected_lo = mid
        seen = []

        def spy(x):
            seen.append(x)
            return reached(x)

        assert analysis._bisect_low(spy, lo, hi, halvings) == expected_hi
        assert len(set(seen)) == len(seen)

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.integers(min_value=1, max_value=64),
        k_offset=st.integers(min_value=-1, max_value=1),
        k_fraction=st.floats(min_value=0.0, max_value=1.0),
        qm=st.floats(min_value=0.001, max_value=0.6),
        tr=st.floats(min_value=0.5, max_value=50.0),
        quantile=st.floats(min_value=0.01, max_value=0.99),
        horizon=st.floats(min_value=0.5, max_value=600.0),
    )
    def test_success_time_equals_fixed_loop(
        self, cells, k_offset, k_fraction, qm, tr, quantile, horizon
    ):
        # k = 0 (every t, even the initial lo, meets the target) and
        # k = cells + 1 (none does) are among the drawn cases.
        k = min(max(int(k_fraction * cells) + k_offset, 0), cells + 1)
        assert success_time_quantile(
            k, qm, tr, cells, quantile, horizon
        ) == fixed_success_time(k, qm, tr, cells, quantile, horizon)

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.integers(min_value=1, max_value=64),
        k_offset=st.integers(min_value=-1, max_value=1),
        k_fraction=st.floats(min_value=0.0, max_value=1.0),
        tr=st.floats(min_value=0.5, max_value=50.0),
        budget=st.floats(min_value=0.5, max_value=600.0),
        confidence=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_minimum_qm_equals_fixed_loop(
        self, cells, k_offset, k_fraction, tr, budget, confidence
    ):
        k = min(max(int(k_fraction * cells) + k_offset, 0), cells + 1)
        assert outcome(
            lambda: minimum_qm(k, tr, budget, cells, confidence)
        ) == outcome(lambda: fixed_minimum_qm(k, tr, budget, cells, confidence))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: success_time_quantile(32, QM, TR),
            lambda: success_time_quantile(0, QM, TR),
            lambda: minimum_qm(32, TR),
            lambda: minimum_qm(0, TR),
            lambda: minimum_qm(32, 20.0, confidence=0.95),
        ],
        ids=["median-time", "time-k0", "min-qm", "min-qm-k0", "min-qm-95"],
    )
    def test_no_point_evaluated_twice(self, monkeypatch, call):
        seen = []
        exact = analysis.probability_at_least

        def spy(*args):
            seen.append(args)
            return exact(*args)

        monkeypatch.setattr(analysis, "probability_at_least", spy)
        call()
        assert seen
        assert len(set(seen)) == len(seen)
