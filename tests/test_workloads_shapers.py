"""Load shapers: bounds, spec-grammar round-trips, thinning invariance.

The shapers gate every workload class's arrival process, so three
properties matter: multipliers never exceed the declared envelope
(Hypothesis-driven), the compact spec grammar round-trips exactly, and
Lewis thinning consumes a fixed two draws per candidate — the accepted
arrivals of any unit-envelope shaper are a *subset* of the constant
shaper's arrivals under the same seed.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.workloads.shapers import (
    ComposeShaper,
    ConstantShaper,
    DiurnalShaper,
    FlashCrowdShaper,
    parse_shaper,
    shaped_arrival_times,
)


# -- constructors ------------------------------------------------------------


class TestValidation:
    def test_constant_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantShaper(-1.0)

    def test_diurnal_bad_period_and_trough(self):
        with pytest.raises(ConfigurationError):
            DiurnalShaper(period=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalShaper(trough=1.5)

    def test_flash_crowd_bad_args(self):
        with pytest.raises(ConfigurationError):
            FlashCrowdShaper(at=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            FlashCrowdShaper(at=0.0, duration=10.0, amplitude=0.5)
        with pytest.raises(ConfigurationError):
            FlashCrowdShaper(at=0.0, duration=10.0, ramp=6.0)

    def test_compose_needs_shapers(self):
        with pytest.raises(ConfigurationError):
            ComposeShaper([])

    def test_mean_multiplier_needs_horizon(self):
        with pytest.raises(ConfigurationError):
            ConstantShaper().mean_multiplier(0.0)


# -- shapes ------------------------------------------------------------------


class TestShapes:
    def test_diurnal_peak_and_trough(self):
        shaper = DiurnalShaper(period=60.0, trough=0.25, peak_time=30.0)
        assert shaper.multiplier(30.0) == pytest.approx(1.0)
        assert shaper.multiplier(0.0) == pytest.approx(0.25)
        assert shaper.multiplier(60.0) == pytest.approx(0.25)

    def test_flash_crowd_trapezoid(self):
        shaper = FlashCrowdShaper(at=10.0, duration=10.0, amplitude=5.0, ramp=2.0)
        assert shaper.multiplier(9.9) == 1.0
        assert shaper.multiplier(11.0) == pytest.approx(3.0)  # mid-ramp
        assert shaper.multiplier(15.0) == 5.0
        assert shaper.multiplier(19.0) == pytest.approx(3.0)
        assert shaper.multiplier(20.1) == 1.0

    def test_compose_is_product(self):
        a = ConstantShaper(2.0)
        b = DiurnalShaper(period=40.0, trough=0.5, peak_time=0.0)
        both = ComposeShaper([a, b])
        for t in (0.0, 7.0, 13.0, 25.0):
            assert both.multiplier(t) == pytest.approx(
                a.multiplier(t) * b.multiplier(t)
            )
        assert both.max_multiplier() == pytest.approx(2.0)

    def test_mean_multiplier_midpoint_rule(self):
        # Full-period diurnal mean: trough + (1 - trough)/2.
        shaper = DiurnalShaper(period=60.0, trough=0.25, peak_time=30.0)
        assert shaper.mean_multiplier(60.0) == pytest.approx(0.625, abs=1e-6)


# -- Hypothesis: envelope bound ----------------------------------------------


@st.composite
def shapers(draw):
    kind = draw(st.sampled_from(["constant", "diurnal", "flash-crowd", "compose"]))
    if kind == "constant":
        return ConstantShaper(draw(st.floats(min_value=0.0, max_value=10.0)))
    if kind == "diurnal":
        return DiurnalShaper(
            period=draw(st.floats(min_value=1.0, max_value=1000.0)),
            trough=draw(st.floats(min_value=0.0, max_value=1.0)),
            peak_time=draw(st.floats(min_value=0.0, max_value=100.0)),
        )
    if kind == "flash-crowd":
        duration = draw(st.floats(min_value=1.0, max_value=100.0))
        return FlashCrowdShaper(
            at=draw(st.floats(min_value=0.0, max_value=100.0)),
            duration=duration,
            amplitude=draw(st.floats(min_value=1.0, max_value=20.0)),
            ramp=draw(st.floats(min_value=0.0, max_value=duration / 2.0)),
        )
    return ComposeShaper(
        [ConstantShaper(2.0), DiurnalShaper(period=30.0, trough=0.1)]
    )


@given(shaper=shapers(), t=st.floats(min_value=-50.0, max_value=1000.0))
@settings(max_examples=100, deadline=None)
def test_multiplier_within_envelope(shaper, t):
    m = shaper.multiplier(t)
    assert 0.0 <= m <= shaper.max_multiplier() + 1e-9


@given(shaper=shapers())
@settings(max_examples=50, deadline=None)
def test_spec_round_trip(shaper):
    """parse(to_spec()) is a fixed point: the grammar loses nothing
    beyond ``%g``'s one-time rounding of the constructor arguments."""
    clone = parse_shaper(shaper.to_spec())
    assert clone.to_spec() == shaper.to_spec()
    assert type(clone) is type(shaper)
    assert clone.max_multiplier() == pytest.approx(
        shaper.max_multiplier(), rel=1e-5
    )


# -- the grammar -------------------------------------------------------------


class TestGrammar:
    def test_parse_single(self):
        shaper = parse_shaper("diurnal:period=120,trough=0.3")
        assert isinstance(shaper, DiurnalShaper)
        assert shaper.period == 120.0
        assert shaper.trough == 0.3

    def test_parse_composition(self):
        shaper = parse_shaper(
            "flash-crowd:at=40,duration=20,amplitude=6;diurnal:period=200"
        )
        assert isinstance(shaper, ComposeShaper)
        assert len(shaper.shapers) == 2

    @pytest.mark.parametrize(
        "spec",
        ["", "   ", "tsunami:at=3", "diurnal:perod=3", "diurnal:period",
         "constant:factor=much", ";;"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shaper(spec)

    @pytest.mark.parametrize(
        "duration, ramp, spelled",
        [(10.00004, 5.000019, "ramp=5"), (9.999994, 4.999995, "ramp=4.999995")],
    )
    def test_half_duration_ramp_survives_rounding(self, duration, ramp, spelled):
        """%g can round the duration down and the ramp up past half of
        it; the spec must still parse and stay a fixed point."""
        spec = FlashCrowdShaper(at=0.0, duration=duration, ramp=ramp).to_spec()
        assert spec.endswith(spelled)
        assert parse_shaper(spec).to_spec() == spec


# -- Lewis thinning ----------------------------------------------------------


class TestThinning:
    def test_bad_rate_or_horizon(self):
        with pytest.raises(ConfigurationError):
            list(shaped_arrival_times(0.0, 10.0, ConstantShaper(), random.Random(0)))
        with pytest.raises(ConfigurationError):
            list(shaped_arrival_times(5.0, 0.0, ConstantShaper(), random.Random(0)))

    def test_zero_envelope_is_empty(self):
        times = list(
            shaped_arrival_times(5.0, 10.0, ConstantShaper(0.0), random.Random(0))
        )
        assert times == []

    def test_unit_envelope_thinning_is_subset(self):
        """Same seed + same envelope rate -> identical candidate stream;
        a sub-unit shaper accepts a subset of the constant shaper's
        arrivals (the two-draws-per-candidate contract)."""
        constant = list(
            shaped_arrival_times(8.0, 60.0, ConstantShaper(), random.Random(42))
        )
        diurnal = list(
            shaped_arrival_times(
                8.0, 60.0, DiurnalShaper(period=60.0, trough=0.2, peak_time=30.0),
                random.Random(42),
            )
        )
        assert set(diurnal) <= set(constant)
        assert 0 < len(diurnal) < len(constant)

    def test_thinned_rate_matches_mean_multiplier(self):
        """Accepted arrival count ≈ rate × horizon × mean multiplier."""
        shaper = DiurnalShaper(period=100.0, trough=0.3, peak_time=50.0)
        rate, horizon = 50.0, 100.0
        count = sum(
            1 for _ in shaped_arrival_times(rate, horizon, shaper,
                                            random.Random(7))
        )
        expected = rate * horizon * shaper.mean_multiplier(horizon)
        assert abs(count - expected) < 4 * math.sqrt(expected)

    def test_arrivals_sorted_within_horizon(self):
        times = list(
            shaped_arrival_times(20.0, 30.0, ConstantShaper(), random.Random(3))
        )
        assert times == sorted(times)
        assert all(0.0 < t < 30.0 for t in times)
