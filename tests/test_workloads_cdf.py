"""Empirical-CDF construction, inverse transform, and sampling.

The workload engine's credibility rests on the samplers: the quantile
function must hit the tabulated knots exactly, atoms must carry their
whole mass, and ``sample_sizes`` must equal drawing one size at a time
off the same stream **byte-for-byte** (the scenario goldens depend on
it).
Hypothesis drives the structural invariants; the exact-value checks pin
the shipped web-search and data-mining tables.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.workloads.cdf import (
    DATA_MINING_POINTS,
    WEB_SEARCH_POINTS,
    WORKLOAD_CDFS,
    EmpiricalCDF,
    resolve_cdf,
)

ALL_CDFS = sorted(WORKLOAD_CDFS)


# -- construction / validation ----------------------------------------------


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF([(0.0, 1.0)])

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigurationError, match="start at fraction 0.0"):
            EmpiricalCDF([(0.1, 1.0), (1.0, 2.0)])

    def test_must_end_at_one(self):
        with pytest.raises(ConfigurationError, match="end at fraction 1.0"):
            EmpiricalCDF([(0.0, 1.0), (0.9, 2.0)])

    def test_fractions_strictly_increasing(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            EmpiricalCDF([(0.0, 1.0), (0.5, 2.0), (0.5, 3.0), (1.0, 4.0)])

    def test_sizes_non_decreasing(self):
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            EmpiricalCDF([(0.0, 5.0), (0.5, 2.0), (1.0, 9.0)])

    def test_sizes_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            EmpiricalCDF([(0.0, 0.0), (1.0, 4.0)])

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload CDF"):
            resolve_cdf("cachenet")

    def test_quantile_domain(self):
        cdf = resolve_cdf("web-search")
        for u in (-0.01, 1.01):
            with pytest.raises(ConfigurationError):
                cdf.quantile(u)

    def test_ks_needs_samples(self):
        with pytest.raises(ConfigurationError):
            resolve_cdf("web-search").ks_distance([])

    def test_negative_sample_count(self):
        with pytest.raises(ConfigurationError):
            resolve_cdf("web-search").sample_sizes(-1, seed=0)


# -- the inverse transform ---------------------------------------------------


class TestQuantile:
    @pytest.mark.parametrize(
        "points", [WEB_SEARCH_POINTS, DATA_MINING_POINTS], ids=["web", "mining"]
    )
    def test_knots_exact(self, points):
        """The quantile function passes through every tabulated knot."""
        cdf = EmpiricalCDF(points)
        for fraction, size in points:
            assert cdf.quantile(fraction) == size

    def test_atom_is_flat(self):
        """Inside the leading atom the quantile is constant at the atom."""
        web = resolve_cdf("web-search")
        mining = resolve_cdf("data-mining")
        for u in (0.0, 0.05, 0.1, 0.15):
            assert web.quantile(u) == 6.0
        for u in (0.0, 0.25, 0.5):
            assert mining.quantile(u) == 1.0

    def test_interpolation_midpoint(self):
        # web-search: (0.15, 6) -> (0.2, 13); u = 0.175 is halfway.
        assert resolve_cdf("web-search").quantile(0.175) == pytest.approx(9.5)

    def test_support(self):
        assert resolve_cdf("web-search").support == (6.0, 20000.0)
        assert resolve_cdf("data-mining").support == (1.0, 666667.0)

    def test_percentile_is_quantile(self):
        cdf = resolve_cdf("web-search")
        assert cdf.percentile(90) == cdf.quantile(0.9)


class TestCdfFunction:
    @pytest.mark.parametrize("name", ALL_CDFS)
    def test_cdf_inverts_quantile_off_atoms(self, name):
        cdf = resolve_cdf(name)
        for u in (0.55, 0.65, 0.75, 0.85, 0.95):
            assert cdf.cdf(cdf.quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_atom_mass_at_the_atom(self):
        web = resolve_cdf("web-search")
        mining = resolve_cdf("data-mining")
        # cdf includes the whole atom; cdf_left excludes it.
        assert web.cdf(6.0) == pytest.approx(0.15)
        assert web.cdf_left(6.0) == 0.0
        assert mining.cdf(1.0) == pytest.approx(0.5)
        assert mining.cdf_left(1.0) == 0.0

    @pytest.mark.parametrize("name", ALL_CDFS)
    def test_bounds(self, name):
        cdf = resolve_cdf(name)
        lo, hi = cdf.support
        assert cdf.cdf(lo - 1.0) == 0.0
        assert cdf.cdf(hi) == 1.0
        assert cdf.cdf(hi + 1.0) == 1.0
        assert cdf.cdf_left(lo) == 0.0
        assert cdf.cdf_left(hi + 1.0) == 1.0

    @pytest.mark.parametrize("name", ALL_CDFS)
    def test_cdf_left_below_cdf(self, name):
        cdf = resolve_cdf(name)
        for x in [s for s in cdf.sizes] + [7.0, 100.0, 5000.0]:
            assert cdf.cdf_left(x) <= cdf.cdf(x) + 1e-15

    def test_mean_closed_form(self):
        # Trapezoid rule over the knots is exact for piecewise-linear.
        cdf = EmpiricalCDF([(0.0, 2.0), (0.5, 2.0), (1.0, 10.0)])
        assert cdf.mean() == pytest.approx(0.5 * 2.0 + 0.5 * 6.0)


# -- Hypothesis: structural invariants ---------------------------------------


@st.composite
def cdf_points(draw):
    """Random valid (fractions, sizes) tables, atoms included."""
    n = draw(st.integers(min_value=2, max_value=8))
    cuts = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n - 2,
            max_size=n - 2,
            unique=True,
        )
    )
    fractions = [0.0] + sorted(cuts) + [1.0]
    steps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    sizes = [draw(st.floats(min_value=0.5, max_value=10.0))]
    for step in steps:
        sizes.append(sizes[-1] + step)
    return list(zip(fractions, sizes))


@given(points=cdf_points(), u=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_quantile_stays_in_support(points, u):
    cdf = EmpiricalCDF(points)
    lo, hi = cdf.support
    assert lo <= cdf.quantile(u) <= hi


@given(
    points=cdf_points(),
    u1=st.floats(min_value=0.0, max_value=1.0),
    u2=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_quantile_monotone(points, u1, u2):
    cdf = EmpiricalCDF(points)
    lo, hi = sorted((u1, u2))
    assert cdf.quantile(lo) <= cdf.quantile(hi) + 1e-9


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sampling_deterministic_per_seed(seed):
    cdf = resolve_cdf("data-mining")
    assert cdf.sample_sizes(50, seed=seed) == cdf.sample_sizes(50, seed=seed)


def test_iter_samples_matches_sample_sizes():
    """The endless stream and the list sampler agree byte-for-byte."""
    cdf = resolve_cdf("web-search")
    stream = cdf.iter_samples(seed=7)
    assert [next(stream) for _ in range(200)] == cdf.sample_sizes(200, seed=7)


def test_sample_consumes_one_uniform():
    cdf = resolve_cdf("web-search")
    rng = random.Random(3)
    first = cdf.sample(rng)
    assert first == cdf.quantile(random.Random(3).random())


# -- list sampling vs one draw at a time ---------------------------------------


@pytest.mark.parametrize("name", ALL_CDFS)
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_bulk_sampling_equals_scalar_sampling(name, seed):
    cdf = resolve_cdf(name)
    rng = random.Random(seed)
    scalar = [cdf.sample(rng) for _ in range(4096)]
    assert cdf.sample_sizes(4096, seed=seed) == scalar  # exact, not approx


def _scan_quantile(fractions, sizes, u):
    """Reference inverse transform: a linear scan for ``u``'s segment in
    place of the bisect, with the same interpolation expression."""
    i = next((k for k, f in enumerate(fractions) if f >= u), len(fractions))
    if i == 0:
        return sizes[0]
    if i == len(fractions):
        return sizes[-1]
    f_lo, y_lo = fractions[i - 1], sizes[i - 1]
    return y_lo + (u - f_lo) * (sizes[i] - y_lo) / (fractions[i] - f_lo)


@pytest.mark.parametrize("name", ALL_CDFS)
def test_kernel_quantiles_at_knots_and_edges(name):
    """Exact-knot uniforms are the bisect edge cases."""
    cdf = resolve_cdf(name)
    us = list(cdf.fractions) + [0.0, 1.0, 0.5000000000000001]
    expected = [_scan_quantile(cdf.fractions, cdf.sizes, u) for u in us]
    assert [cdf.quantile(u) for u in us] == expected


def test_quantile_matches_kernel_scalar():
    """EmpiricalCDF.quantile agrees exactly with the reference scan."""
    cdf = resolve_cdf("data-mining")
    rng = random.Random(11)
    us = [rng.random() for _ in range(512)]
    expected = [_scan_quantile(cdf.fractions, cdf.sizes, u) for u in us]
    assert [cdf.quantile(u) for u in us] == expected


# -- serialisation round-trip -------------------------------------------------


@pytest.mark.parametrize("name", ALL_CDFS)
def test_to_points_round_trip(name):
    cdf = resolve_cdf(name)
    clone = EmpiricalCDF([tuple(p) for p in cdf.to_points()], name=name)
    assert clone.fractions == cdf.fractions
    assert clone.sizes == cdf.sizes
    assert clone.sample_sizes(64, seed=0) == cdf.sample_sizes(64, seed=0)
