"""Statistical acceptance for every workload generator (satellite layer).

Two kinds of check:

* **Seeded goldens** — the KS distance and sample mean at seed 0 are
  pinned to their exact values.  Any change to the uniform stream, the
  interpolation arithmetic, or the KS estimator moves these and fails
  loudly (they are drift detectors, not statistics).
* **Tolerance bands** — across several seeds the KS distance must stay
  under the continuous-case 95% bound ``1.36/sqrt(n)`` (the estimator
  is atom-aware, so atoms contribute no spurious distance), sample
  moments must track the closed-form CDF moments, and each workload
  class's arrival process must land inside a band implied by its load
  profile.
"""

import math

import pytest

from repro.workloads.cdf import resolve_cdf
from repro.flows.generators import iter_flow_schedules, merge_flow_packets
from repro.kernels import derive_seed
from repro.workloads.engine import (
    WORKLOAD_CLASSES,
    iter_workload_specs,
    measured_tr,
)

N = 20_000
KS_BOUND = 1.36 / math.sqrt(N)

#: seed-0 drift goldens: name -> (ks, sample mean, atom fraction).
SEED0_GOLDENS = {
    "web-search": (0.0052284753404292506, 1139.346904528771, 0.14975),
    "data-mining": (0.004162479619052195, 5324.796076360099, 0.49605),
}


# -- the shipped CDFs --------------------------------------------------------


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("name", sorted(SEED0_GOLDENS))
    def test_seed0_golden(self, name):
        cdf = resolve_cdf(name)
        samples = cdf.sample_sizes(N, seed=0)
        expected_ks, expected_mean, _ = SEED0_GOLDENS[name]
        assert cdf.ks_distance(samples) == pytest.approx(expected_ks, abs=1e-12)
        assert sum(samples) / N == pytest.approx(expected_mean, abs=1e-6)

    @pytest.mark.parametrize("name", sorted(SEED0_GOLDENS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_ks_under_continuous_bound(self, name, seed):
        cdf = resolve_cdf(name)
        assert cdf.ks_distance(cdf.sample_sizes(N, seed=seed)) < KS_BOUND

    @pytest.mark.parametrize("name", sorted(SEED0_GOLDENS))
    def test_atom_mass_recovered(self, name):
        """The fraction of samples landing exactly on the leading atom
        matches the atom's tabulated mass (binomial 4-sigma band)."""
        cdf = resolve_cdf(name)
        samples = cdf.sample_sizes(N, seed=0)
        _, _, expected = SEED0_GOLDENS[name]
        observed = samples.count(cdf.sizes[0]) / N
        assert observed == pytest.approx(expected, abs=1e-12)  # seed-0 golden
        mass = cdf.cdf(cdf.sizes[0])
        sigma = math.sqrt(mass * (1 - mass) / N)
        assert abs(observed - mass) < 4 * sigma

    def test_wrong_cdf_is_detected(self):
        """KS separates the two shipped mixes by a wide margin."""
        web = resolve_cdf("web-search")
        mining = resolve_cdf("data-mining")
        cross = web.ks_distance(mining.sample_sizes(N, seed=0))
        assert cross > 0.3  # vs ~0.005 for the matching CDF


class TestMoments:
    @pytest.mark.parametrize("name", sorted(SEED0_GOLDENS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_band(self, name, seed):
        """Sample mean within 10% of the exact piecewise-linear mean.

        The data-mining tail (top 1% of mass spans 67 MB..667 MB) makes
        the mean's sampling noise large; 10% holds across seeds while
        still catching a scaling or interpolation bug outright.
        """
        cdf = resolve_cdf(name)
        samples = cdf.sample_sizes(N, seed=seed)
        assert sum(samples) / N == pytest.approx(cdf.mean(), rel=0.10)

    @pytest.mark.parametrize("name", sorted(SEED0_GOLDENS))
    @pytest.mark.parametrize("p", [50, 90, 99])
    def test_percentile_bands(self, name, p):
        """Empirical percentiles track the quantile function within 5%."""
        cdf = resolve_cdf(name)
        samples = sorted(cdf.sample_sizes(N, seed=0))
        observed = samples[min(N - 1, int(p / 100 * N))]
        assert observed == pytest.approx(cdf.percentile(p), rel=0.05)


# -- the workload classes ----------------------------------------------------

HORIZON = 60.0


def _specs(name, seed=0, horizon=HORIZON, **over):
    return list(iter_workload_specs(name, seed=seed, horizon=horizon, **over))


class TestArrivalProcesses:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_arrival_count_band(self, name):
        """Flow counts land in a Poisson band around rate×horizon×mean-mult.

        incast is deterministic (fan_in per epoch), so its band is
        exact; the Poisson classes get a 4-sigma allowance.
        """
        cls = WORKLOAD_CLASSES[name]
        specs = _specs(name)
        if name == "incast":
            period = float(cls.defaults["period"])
            epochs = len([e for e in range(1, 10**6) if e * period < HORIZON])
            assert len(specs) == epochs * int(cls.defaults["fan_in"])
            return
        expected = (
            float(cls.defaults["rate"])
            * HORIZON
            * float(cls.profile["mean_multiplier"])
        )
        sigma = math.sqrt(expected)
        assert abs(len(specs) - expected) < 4 * sigma

    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_starts_ordered_inside_horizon(self, name):
        specs = _specs(name)
        assert specs, f"workload {name} produced no flows"
        starts = [spec.start for spec in specs]
        assert starts == sorted(starts)
        assert all(0.0 < s < HORIZON for s in starts)

    def test_flash_crowd_surges(self):
        """Arrival density inside the surge window beats the baseline."""
        starts = [s.start for s in _specs("flash-crowd")]
        surge = [s for s in starts if 24.0 <= s <= 36.0]  # at=0.4h, dur=0.2h
        baseline = [s for s in starts if s < 24.0 or s > 36.0]
        surge_rate = len(surge) / 12.0
        baseline_rate = len(baseline) / (HORIZON - 12.0)
        assert surge_rate > 2.5 * baseline_rate

    def test_diurnal_peaks_mid_run(self):
        """peak_time = horizon/2: arrival *density* in the middle third
        is ~2× the edge density (mean multiplier 0.94 vs 0.47)."""
        starts = [s.start for s in _specs("diurnal")]
        middle = sum(1 for s in starts if HORIZON / 3 <= s <= 2 * HORIZON / 3)
        edges = len(starts) - middle
        middle_density = middle / (HORIZON / 3)
        edge_density = edges / (2 * HORIZON / 3)
        assert middle_density > 1.4 * edge_density

    def test_elephant_fraction(self):
        """~10% of elephant-mice flows draw from the data-mining tail.

        Size ranges overlap (the web-search body reaches 3333 KB), so
        elephants are identified by replaying the per-flow chooser RNG;
        their sizes must then sit in the tail (>= the data-mining p90).
        """
        import random as _random

        from repro.kernels import derive_seed

        specs = _specs("elephant-mice")
        tail_floor_packets = math.ceil(267.0 * 1024.0 / 1460.0)  # p90
        elephants = 0
        for index, spec in enumerate(specs):
            chooser = _random.Random(
                derive_seed("workload", "elephant-mice", 0, "kind", index)
            )
            if chooser.random() < 0.1:
                elephants += 1
                packets = round(spec.duration * spec.packet_rate)
                assert packets >= tail_floor_packets
        fraction = elephants / len(specs)
        sigma = math.sqrt(0.1 * 0.9 / len(specs))
        assert abs(fraction - 0.1) < 4 * sigma

    def test_incast_bursts_are_synchronised(self):
        specs = _specs("incast")
        period = float(WORKLOAD_CLASSES["incast"].defaults["period"])
        fan_in = int(WORKLOAD_CLASSES["incast"].defaults["fan_in"])
        by_epoch = {}
        for spec in specs:
            by_epoch.setdefault(spec.start, 0)
            by_epoch[spec.start] += 1
        assert set(by_epoch.values()) == {fan_in}
        for epoch in by_epoch:
            assert epoch / period == pytest.approx(round(epoch / period))


class TestSizeMixes:
    def test_workload_sizes_follow_their_cdf(self):
        """Reconstructed sizes from the spec stream KS-match the CDF.

        Packetisation rounds sizes up to whole packets, so the check
        runs on the pre-quantised sample the builder drew — reproduced
        here through the same derived per-flow RNG.
        """
        import random as _random

        from repro.kernels import derive_seed

        for name in ("web-search", "data-mining"):
            cdf = resolve_cdf(name)
            specs = _specs(name, seed=0)
            sizes = []
            for index in range(len(specs)):
                frng = _random.Random(
                    derive_seed("workload", name, 0, "flow", index)
                )
                sizes.append(cdf.quantile(frng.random()))
            # Small n -> use the one-sided 99% bound instead of 95%.
            assert cdf.ks_distance(sizes) < 1.63 / math.sqrt(len(sizes))


class TestRecalibratedTr:
    def test_tr_varies_by_workload_class(self):
        """tR separates the classes — the point of recalibration."""
        trs = {
            name: measured_tr(
                name, seed=0, horizon=40.0, size_scale=0.05, max_packets=400
            )
            for name in ("web-search", "data-mining", "incast")
        }
        assert len({round(v, 6) for v in trs.values()}) == 3
        # Every tR is at least the eviction timeout (span >= 0).
        from repro.flows.caida import EVICTION_TIMEOUT

        for value in trs.values():
            assert value >= EVICTION_TIMEOUT

    def test_tr_deterministic(self):
        a = measured_tr("web-search", seed=0, horizon=30.0, size_scale=0.05)
        b = measured_tr("web-search", seed=0, horizon=30.0, size_scale=0.05)
        assert a == b


class TestStreamStats:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_stats_reconcile(self, name):
        """The merge emits the admitted flows' packets + FINs; no record lost."""
        specs = _specs(name, horizon=20.0, size_scale=0.05, max_packets=200)
        held = []

        def admitted():
            schedules = iter_flow_schedules(
                iter(specs), derive_seed("workload", name, 0, "packets")
            )
            for rank, (spec, times, flags) in enumerate(schedules):
                held.append(len(times) + spec.sends_fin)
                yield rank, spec, times, flags

        emitted = sum(1 for _ in merge_flow_packets(admitted()))
        assert len(held) == len(specs)
        assert 0 < emitted == sum(held)
