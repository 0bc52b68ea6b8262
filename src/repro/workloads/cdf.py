"""Empirical flow-size CDFs and inverse-transform sampling.

The paper's attacks run against synthetic traffic; how credible they
are depends on how credible that traffic is.  This module ships the two
classic datacenter flow-size distributions — the *web-search* mix
(DCTCP) and the *data-mining* mix (VL2) — as piecewise-linear empirical
CDFs, exactly the fixture data PrintQueue's ``SyntheticTraffic``
generator uses, and samples flow sizes from them by inverse transform:

    cdf = resolve_cdf("web-search")
    sizes_kb = cdf.sample_sizes(10_000, seed=0)

Determinism contract: every sampler maps the uniforms of one
``random.Random(seed)`` stream through :meth:`EmpiricalCDF.quantile`,
so ``sample_sizes`` is **byte-identical** to drawing one size at a time
off the same stream.  The statistical test layer
(``tests/test_workloads_stats.py``) pins KS distances against these
source CDFs at fixed seeds.

Sizes are in kilobytes.  A flat leading segment (equal neighbouring
sizes) is an atom: the data-mining mix puts 50% of its mass on 1 KB
mice, the web-search mix 15% on 6 KB queries.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.errors import ConfigurationError

#: (cumulative fraction, flow size in KB) — DCTCP's web-search workload
#: as tabulated by PrintQueue's SyntheticTraffic.  The leading
#: ``(0, 6)`` anchor makes the CDF total (quantile defined on all of
#: [0, 1]) and puts the first 15% of mass on 6 KB queries.
WEB_SEARCH_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.0, 6.0),
    (0.15, 6.0),
    (0.2, 13.0),
    (0.3, 19.0),
    (0.4, 33.0),
    (0.53, 53.0),
    (0.6, 133.0),
    (0.7, 667.0),
    (0.8, 1333.0),
    (0.9, 3333.0),
    (0.97, 6667.0),
    (1.0, 20000.0),
)

#: VL2's data-mining workload: half the flows are 1 KB mice, the top
#: 1% are ~0.7 GB elephants — the heavy tail the elephant/mice
#: scenarios stress.
DATA_MINING_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.0, 1.0),
    (0.5, 1.0),
    (0.6, 2.0),
    (0.7, 3.0),
    (0.8, 7.0),
    (0.9, 267.0),
    (0.95, 2107.0),
    (0.99, 66667.0),
    (1.0, 666667.0),
)


class EmpiricalCDF:
    """A piecewise-linear empirical CDF over flow sizes.

    ``points`` is an ascending sequence of ``(fraction, size_kb)``
    pairs: fractions strictly increasing from 0.0 to exactly 1.0,
    sizes positive and non-decreasing.  Equal neighbouring sizes form
    an atom (a point mass); everything else interpolates linearly.
    """

    __slots__ = ("name", "fractions", "sizes")

    def __init__(self, points: Sequence[Tuple[float, float]], name: str = ""):
        if len(points) < 2:
            raise ConfigurationError("an empirical CDF needs at least two points")
        fractions = [float(f) for f, _ in points]
        sizes = [float(s) for _, s in points]
        if fractions[0] != 0.0:
            raise ConfigurationError(
                f"CDF {name!r} must start at fraction 0.0, got {fractions[0]}"
            )
        if fractions[-1] != 1.0:
            raise ConfigurationError(
                f"CDF {name!r} must end at fraction 1.0, got {fractions[-1]}"
            )
        for a, b in zip(fractions, fractions[1:]):
            if b <= a:
                raise ConfigurationError(
                    f"CDF {name!r} fractions must be strictly increasing: {a} -> {b}"
                )
        for a, b in zip(sizes, sizes[1:]):
            if b < a:
                raise ConfigurationError(
                    f"CDF {name!r} sizes must be non-decreasing: {a} -> {b}"
                )
        if sizes[0] <= 0:
            raise ConfigurationError(f"CDF {name!r} sizes must be positive")
        self.name = name
        self.fractions: Tuple[float, ...] = tuple(fractions)
        self.sizes: Tuple[float, ...] = tuple(sizes)

    # -- the inverse transform --------------------------------------------

    def quantile(self, u: float) -> float:
        """Flow size at cumulative fraction ``u``: linear interpolation
        on ``u``'s segment (a flat segment is an atom)."""
        if not 0.0 <= u <= 1.0:
            raise ConfigurationError(f"quantile fraction must be in [0, 1], got {u}")
        fractions, sizes = self.fractions, self.sizes
        i = bisect_left(fractions, u)
        if i <= 0:
            return sizes[0]
        if i > len(fractions) - 1:
            return sizes[-1]
        f_lo = fractions[i - 1]
        y_lo = sizes[i - 1]
        return y_lo + (u - f_lo) * (sizes[i] - y_lo) / (fractions[i] - f_lo)

    def cdf(self, x: float) -> float:
        """P(size <= x); atoms contribute their whole mass at ``x``."""
        fractions, sizes = self.fractions, self.sizes
        if x < sizes[0]:
            return 0.0
        if x >= sizes[-1]:
            return 1.0
        i = bisect_right(sizes, x)
        # sizes[i-1] <= x < sizes[i]; duplicates collapse onto the last
        # equal entry, so a query *at* an atom includes its full mass.
        f_lo, f_hi = fractions[i - 1], fractions[i]
        y_lo, y_hi = sizes[i - 1], sizes[i]
        if y_hi == y_lo:
            return f_hi
        return f_lo + (x - y_lo) * (f_hi - f_lo) / (y_hi - y_lo)

    def cdf_left(self, x: float) -> float:
        """P(size < x) — the left limit, *excluding* any atom at ``x``."""
        fractions, sizes = self.fractions, self.sizes
        if x <= sizes[0]:
            return 0.0
        if x > sizes[-1]:
            return 1.0
        i = bisect_left(sizes, x)
        # sizes[i-1] < x <= sizes[i]; duplicates resolve to the *first*
        # equal entry, whose fraction is the pre-atom mass.
        f_lo, f_hi = fractions[i - 1], fractions[i]
        y_lo, y_hi = sizes[i - 1], sizes[i]
        return f_lo + (x - y_lo) * (f_hi - f_lo) / (y_hi - y_lo)

    # -- moments -----------------------------------------------------------

    def mean(self) -> float:
        """Exact mean of the piecewise-linear distribution (KB)."""
        total = 0.0
        for i in range(1, len(self.fractions)):
            mass = self.fractions[i] - self.fractions[i - 1]
            total += mass * (self.sizes[i - 1] + self.sizes[i]) / 2.0
        return total

    def percentile(self, p: float) -> float:
        """Flow size at percentile ``p`` (0..100)."""
        return self.quantile(p / 100.0)

    @property
    def support(self) -> Tuple[float, float]:
        return (self.sizes[0], self.sizes[-1])

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: random.Random) -> float:
        """One flow size, consuming exactly one uniform from ``rng``."""
        return self.quantile(rng.random())

    def iter_samples(self, seed: int) -> Iterator[float]:
        """An endless seeded stream of flow sizes (bounded memory)."""
        rng = random.Random(seed)
        quantile = self.quantile
        while True:
            yield quantile(rng.random())

    def sample_sizes(self, n: int, seed: int) -> List[float]:
        """``n`` flow sizes: the first ``n`` of :meth:`iter_samples`."""
        if n < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {n}")
        return list(islice(self.iter_samples(seed), n))

    # -- statistics --------------------------------------------------------

    def ks_distance(self, samples: Sequence[float]) -> float:
        """Two-sided Kolmogorov–Smirnov distance of ``samples`` vs this CDF.

        Atom-aware: at a point mass the empirical CDF is compared
        against ``cdf`` from above and against :meth:`cdf_left` from
        below, so the 50%-of-flows-are-1KB data-mining atom does not
        register as spurious distance.
        """
        if not samples:
            raise ConfigurationError("KS distance needs at least one sample")
        ordered = sorted(samples)
        n = len(ordered)
        worst = 0.0
        i = 0
        while i < n:
            j = i
            while j < n and ordered[j] == ordered[i]:
                j += 1
            x = ordered[i]
            worst = max(
                worst,
                abs(j / n - self.cdf(x)),
                abs(self.cdf_left(x) - i / n),
            )
            i = j
        return worst

    # -- (de)serialisation -------------------------------------------------

    def to_points(self) -> List[List[float]]:
        return [[f, s] for f, s in zip(self.fractions, self.sizes)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmpiricalCDF({self.name!r}, {len(self.fractions)} points)"


WEB_SEARCH_CDF = EmpiricalCDF(WEB_SEARCH_POINTS, name="web-search")
DATA_MINING_CDF = EmpiricalCDF(DATA_MINING_POINTS, name="data-mining")

#: The shipped distributions, by workload-mix name.
WORKLOAD_CDFS: Dict[str, EmpiricalCDF] = {
    "web-search": WEB_SEARCH_CDF,
    "data-mining": DATA_MINING_CDF,
}


def resolve_cdf(name: str) -> EmpiricalCDF:
    """The shipped CDF called ``name`` (ConfigurationError if unknown)."""
    try:
        return WORKLOAD_CDFS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload CDF {name!r}; choose from {sorted(WORKLOAD_CDFS)}"
        ) from None
