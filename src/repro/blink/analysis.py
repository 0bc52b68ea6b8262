"""Closed-form analysis of the Blink flow-selector capture attack.

Implements the theoretical model of Section 3.1 of the paper:

    "Let tR be the average time a legitimate flow remains sampled.  We
    assume a malicious flow is always active, and thus once being
    sampled, it is never evicted unless the sample is entirely reset.
    [...] For a particular cell of the array used for sampling, the
    probability p that it is occupied by a malicious flow at the end of
    the time budget tB is p = 1 − (1 − qm)^(tB/tR).  [...] X is
    binomially distributed with parameters n and p."

plus the quantities Fig. 2 plots (average and 5th/95th-percentile
curves, Monte-Carlo sample paths) and the derived attack-feasibility
measures (time until half the sample is captured, minimum qm for a
given budget).

The binomial tail and quantile are exact: a float ``p`` is the ratio
``a/d`` of two integers, so every weight ``C(n, i)·a^i·(d − a)^(n−i)``
of the distribution over ``d^n`` is an integer.  A tail is a sum of
those integers divided once (correctly rounded).  A quantile is placed
by a float CDF, and any CDF value too near q to trust is compared in
integers instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.blink.constants import DEFAULT_CELLS, RESET_INTERVAL
from repro.core.errors import ConfigurationError


def _validate(qm: float, tr: float) -> None:
    if not 0.0 < qm < 1.0:
        raise ConfigurationError(f"qm must be in (0, 1), got {qm}")
    if tr <= 0:
        raise ConfigurationError(f"tR must be positive, got {tr}")


def _lower_weight(n: int, a: int, b: int, k: int) -> int:
    """Σ_{i<k} C(n, i)·a^i·b^(n−i), by homogeneous Horner over k terms."""
    acc = 0
    a_pow = 1
    comb = 1
    for i in range(k):
        acc = acc * b + comb * a_pow
        a_pow *= a
        comb = comb * (n - i) // (i + 1)
    return acc * b ** (n - k + 1)


def binomial_tail(n: int, k: int, p: float) -> float:
    """P(X ≥ k) for X ~ Binomial(n, p), correctly rounded.

    Sums whichever side of ``k`` has fewer terms; the upper side of
    X is the lower side of n − X, whose success odds are b : a.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    a, d = p.as_integer_ratio()
    b = d - a
    total = d**n
    if k <= n - k + 1:
        return (total - _lower_weight(n, a, b, k)) / total
    return _lower_weight(n, b, a, n - k + 1) / total


def _log_comb(n: int, i: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def _tie_band(n: int) -> float:
    """How near q a float CDF must come for the exact quantile to decide.

    Each float weight exp(log C(n, i) + i·ln p + (n − i)·ln(1 − p)) errs
    by a few ulps of log-terms of size O(n·ln n), and the running sum
    adds n roundings more, so the float CDF is off by O(n·ln n·1e-16):
    far inside this band.
    """
    return 1e-12 * (n + 1)


def _exact_binomial_quantile(n: int, p: float, q: float) -> int:
    """:func:`binomial_quantile` in integers: ``cdf·qd ≥ qa·d^n``."""
    a, d = p.as_integer_ratio()
    b = d - a
    if q <= 0.0:
        return 0
    if q >= 1.0 or b == 0:
        return n if a else 0
    qa, qd = q.as_integer_ratio()
    target = qa * d**n
    weight = b**n
    cdf = weight
    k = 0
    while cdf * qd < target:
        # C(n,k+1)·a^(k+1)·b^(n−k−1) from its predecessor; exact.
        weight = weight * ((n - k) * a) // ((k + 1) * b)
        k += 1
        cdf += weight
    return k


def binomial_quantile(n: int, p: float, q: float) -> int:
    """Smallest k with P(X ≤ k) ≥ q for X ~ Binomial(n, p), q in [0, 1].

    q = 0 gives 0 and q = 1 the largest k with positive mass.  A float
    CDF places k; when it passes within :func:`_tie_band` of q either
    side of k, the integer comparison decides instead.
    """
    if 0.0 < p < 1.0:
        log_p, log_q = math.log(p), math.log1p(-p)
        band = _tie_band(n)
        cdf = 0.0
        for k in range(n + 1):
            below = cdf
            cdf += math.exp(_log_comb(n, k) + k * log_p + (n - k) * log_q)
            if cdf >= q:
                if cdf - q > band and q - below > band:
                    return k
                break
    return _exact_binomial_quantile(n, p, q)


def capture_probability(t: float, qm: float, tr: float) -> float:
    """p(t) = 1 − (1 − qm)^(t/tR): one cell is malicious by time t."""
    _validate(qm, tr)
    if t < 0:
        raise ConfigurationError(f"time must be non-negative, got {t}")
    return 1.0 - (1.0 - qm) ** (t / tr)


def mean_captured(t: float, qm: float, tr: float, cells: int = DEFAULT_CELLS) -> float:
    """Expected number of malicious flows monitored at time t."""
    return cells * capture_probability(t, qm, tr)


def captured_percentile(
    t: float, qm: float, tr: float, q: float, cells: int = DEFAULT_CELLS
) -> float:
    """q-th percentile of the binomial number of captured cells at t.

    The smallest k with P(X ≤ k) ≥ q/100; the 0th percentile is 0 and
    the 100th the most cells that can have been captured (0 at t = 0).
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("percentile q must be in [0, 100]")
    p = capture_probability(t, qm, tr)
    return float(binomial_quantile(cells, p, q / 100.0))


def probability_at_least(
    k: int, t: float, qm: float, tr: float, cells: int = DEFAULT_CELLS
) -> float:
    """P(X ≥ k) at time t — the attack-success probability."""
    if k <= 0:
        return 1.0
    if k > cells:
        return 0.0
    return binomial_tail(cells, k, capture_probability(t, qm, tr))


def mean_crossing_time(
    k: int, qm: float, tr: float, cells: int = DEFAULT_CELLS
) -> float:
    """Time at which the *mean* captured count reaches k.

    Solves cells·p(t) = k:  t = tR · ln(1 − k/cells) / ln(1 − qm).
    """
    _validate(qm, tr)
    if not 0 < k <= cells:
        raise ConfigurationError(f"k must be in (0, cells], got {k}")
    if k == cells:
        return math.inf
    return tr * math.log(1.0 - k / cells) / math.log(1.0 - qm)


def expected_hitting_time(
    k: int, qm: float, tr: float, cells: int = DEFAULT_CELLS
) -> float:
    """Expected time of the k-th cell capture (order statistics).

    Under the continuous-time embedding of the model, each cell flips
    malicious at an exponential time with rate λ = −ln(1 − qm)/tR
    (chosen so the marginal matches p(t) exactly).  The k-th order
    statistic of n iid exponentials has expectation
    (1/λ)·Σ_{i=n−k+1}^{n} 1/i.
    """
    _validate(qm, tr)
    if not 0 < k <= cells:
        raise ConfigurationError(f"k must be in (0, cells], got {k}")
    lam = -math.log(1.0 - qm) / tr
    return sum(1.0 / i for i in range(cells - k + 1, cells + 1)) / lam


def _bisect_low(
    reached: Callable[[float], bool], lo: float, hi: float, halvings: int
) -> float:
    """``hi`` after up to ``halvings`` bisection steps of monotone ``reached``.

    ``reached(hi)`` must hold on entry.  Each step moves ``hi`` to the
    midpoint when it is reached, else ``lo``.  Once the midpoint rounds
    onto an end whose verdict is known (``hi`` always, ``lo`` after a
    step has moved it), no step can change either end again, so the
    loop stops there with the float the full count would give.  The
    only end ever tested is an untested initial ``lo`` the midpoint
    rounds onto, and no point is tested twice.
    """
    lo_known = False
    for _ in range(halvings):
        mid = (lo + hi) / 2.0
        if mid == hi or (mid == lo and lo_known):
            break
        if reached(mid):
            hi = mid
        else:
            lo, lo_known = mid, True
    return hi


def success_time_quantile(
    k: int,
    qm: float,
    tr: float,
    cells: int = DEFAULT_CELLS,
    quantile: float = 0.5,
    horizon: float = RESET_INTERVAL,
) -> Optional[float]:
    """Smallest t with P(X(t) ≥ k) ≥ quantile, or None within horizon.

    The monotone coupling of the capture process (cells only flip
    toward malicious between resets) makes P(X(t) ≥ k) non-decreasing
    in t, so bisection applies.
    """
    if not 0.0 < quantile < 1.0:
        raise ConfigurationError("quantile must be in (0, 1)")
    if probability_at_least(k, horizon, qm, tr, cells) < quantile:
        return None
    return _bisect_low(
        lambda t: probability_at_least(k, t, qm, tr, cells) >= quantile,
        0.0,
        horizon,
        60,
    )


def minimum_qm(
    k: int,
    tr: float,
    budget: float = RESET_INTERVAL,
    cells: int = DEFAULT_CELLS,
    confidence: float = 0.5,
) -> float:
    """Minimum malicious traffic fraction to capture k cells in budget.

    "With longer tR, the attack is harder, i.e., requires higher qm."
    Bisects on qm until P(X(budget) ≥ k) ≥ confidence.
    """
    if tr <= 0 or budget <= 0:
        raise ConfigurationError("tR and budget must be positive")
    lo, hi = 1e-6, 1.0 - 1e-9
    if probability_at_least(k, budget, hi, tr, cells) < confidence:
        raise ConfigurationError("unreachable even with qm ≈ 1")
    return _bisect_low(
        lambda qm: probability_at_least(k, budget, qm, tr, cells) >= confidence,
        lo,
        hi,
        80,
    )


@dataclass
class CaptureCurve:
    """Theory curves for Fig. 2."""

    times: List[float]
    mean: List[float]
    p5: List[float]
    p95: List[float]
    qm: float
    tr: float
    cells: int


def _sample_grid(horizon: float, step: float) -> List[float]:
    return [i * step for i in range(int(horizon / step) + 1)]


def theory_curves(
    qm: float,
    tr: float,
    cells: int = DEFAULT_CELLS,
    horizon: float = RESET_INTERVAL,
    step: float = 1.0,
) -> CaptureCurve:
    """Average + 5th/95th-percentile capture curves (Fig. 2 lines)."""
    if step <= 0 or horizon <= 0:
        raise ConfigurationError("step and horizon must be positive")
    times = _sample_grid(horizon, step)
    return CaptureCurve(
        times=times,
        mean=[mean_captured(t, qm, tr, cells) for t in times],
        p5=[captured_percentile(t, qm, tr, 5.0, cells) for t in times],
        p95=[captured_percentile(t, qm, tr, 95.0, cells) for t in times],
        qm=qm,
        tr=tr,
        cells=cells,
    )


@dataclass
class MonteCarloRun:
    """One simulated capture trajectory (a thin blue line in Fig. 2)."""

    times: List[float]
    captured: List[int]
    crossing_time: Optional[float]


def sample_flip_times(
    qm: float, tr: float, cells: int, horizon: float, rng: random.Random
) -> List[float]:
    """One run's cell-capture times, ascending.

    Each cell is refreshed by an independent Poisson process of rate
    1/tR (a legitimate flow departing and a new flow being sampled);
    each refresh installs a malicious flow with probability qm, after
    which the cell stays captured until the horizon (sample reset).
    Cells not captured before ``horizon`` are left out.
    """
    flips: List[float] = []
    for _ in range(cells):
        t = 0.0
        while t < horizon:
            t += rng.expovariate(1.0 / tr)
            if t >= horizon:
                break
            if rng.random() < qm:
                flips.append(t)
                break
    flips.sort()
    return flips


def captured_counts(flips: Sequence[float], times: Sequence[float]) -> List[int]:
    """Captured cells at each of the ascending ``times``, given a run's
    ascending ``flips``."""
    captured: List[int] = []
    idx = 0
    for t in times:
        while idx < len(flips) and flips[idx] <= t:
            idx += 1
        captured.append(idx)
    return captured


def crossing_time(flips: Sequence[float], threshold: int) -> Optional[float]:
    """When the ``threshold``-th cell was captured, or None if it never
    was.  A one-cell selector's threshold is 0: its one capture, if any."""
    return flips[threshold - 1] if flips and threshold <= len(flips) else None


def simulate_capture(
    qm: float,
    tr: float,
    cells: int = DEFAULT_CELLS,
    horizon: float = RESET_INTERVAL,
    step: float = 1.0,
    seed: int = 0,
    threshold: Optional[int] = None,
) -> MonteCarloRun:
    """Cell-level Monte-Carlo of the capture process (one run of
    :func:`sample_flip_times`, drawn from ``random.Random(seed)``)."""
    _validate(qm, tr)
    if threshold is None:
        threshold = cells // 2
    flips = sample_flip_times(qm, tr, cells, horizon, random.Random(seed))
    times = _sample_grid(horizon, step)
    return MonteCarloRun(
        times=times,
        captured=captured_counts(flips, times),
        crossing_time=crossing_time(flips, threshold),
    )


@dataclass
class Fig2Result:
    """Everything needed to redraw Fig. 2 plus the headline numbers."""

    theory: CaptureCurve
    runs: List[MonteCarloRun]
    threshold: int
    mean_crossing_theory: float
    expected_hitting_theory: float
    median_success_time_theory: Optional[float]
    crossing_times_simulated: List[float] = field(default_factory=list)

    @property
    def mean_crossing_simulated(self) -> Optional[float]:
        if not self.crossing_times_simulated:
            return None
        return sum(self.crossing_times_simulated) / len(self.crossing_times_simulated)

    @property
    def success_fraction(self) -> float:
        if not self.runs:
            return 0.0
        return len(self.crossing_times_simulated) / len(self.runs)


@dataclass
class Fig2Headline:
    """Fig. 2's headline numbers, without the curves that are drawn.

    ``run_crossings`` holds each Monte-Carlo run's time to ``threshold``
    captured cells (None when the run never got there), and
    ``flip_rows`` each run's sorted cell-capture times.
    """

    threshold: int
    mean_crossing_theory: float
    expected_hitting_theory: float
    median_success_time_theory: Optional[float]
    run_crossings: List[Optional[float]]
    flip_rows: List[List[float]]

    @property
    def crossing_times_simulated(self) -> List[float]:
        return [t for t in self.run_crossings if t is not None]

    @property
    def mean_crossing_simulated(self) -> Optional[float]:
        crossings = self.crossing_times_simulated
        if not crossings:
            return None
        return sum(crossings) / len(crossings)

    @property
    def success_fraction(self) -> float:
        if not self.run_crossings:
            return 0.0
        return len(self.crossing_times_simulated) / len(self.run_crossings)


def fig2_headline(
    qm: float = 0.0525,
    tr: float = 8.37,
    cells: int = DEFAULT_CELLS,
    horizon: float = RESET_INTERVAL,
    runs: int = 50,
    seed: int = 0,
) -> Fig2Headline:
    """The theory numbers and simulated crossings of :func:`fig2_experiment`.

    Same arguments and the same Monte-Carlo runs, but no theory curves
    and no per-step occupancy counts: the curves' ~1000 scalar
    :func:`binomial_quantile` calls are most of a Fig. 2 run, and a
    campaign cell reads only the numbers.
    """
    _validate(qm, tr)
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    threshold = cells // 2
    flip_rows = [
        sample_flip_times(qm, tr, cells, horizon, random.Random(seed + i))
        for i in range(runs)
    ]
    return Fig2Headline(
        threshold=threshold,
        mean_crossing_theory=mean_crossing_time(threshold, qm, tr, cells),
        expected_hitting_theory=expected_hitting_time(threshold, qm, tr, cells),
        median_success_time_theory=success_time_quantile(threshold, qm, tr, cells, 0.5, horizon),
        run_crossings=[crossing_time(flips, threshold) for flips in flip_rows],
        flip_rows=flip_rows,
    )


def fig2_experiment(
    qm: float = 0.0525,
    tr: float = 8.37,
    cells: int = DEFAULT_CELLS,
    horizon: float = RESET_INTERVAL,
    runs: int = 50,
    step: float = 1.0,
    seed: int = 0,
) -> Fig2Result:
    """Reproduce Fig. 2: theory curves + ``runs`` Monte-Carlo paths.

    Run ``i`` draws from ``random.Random(seed + i)``; the headline
    numbers come from :func:`fig2_headline`.
    """
    theory = theory_curves(qm, tr, cells, horizon, step)
    headline = fig2_headline(qm, tr, cells, horizon, runs, seed)
    times = _sample_grid(horizon, step)
    simulated = [
        MonteCarloRun(
            times=list(times),
            captured=captured_counts(flips, times),
            crossing_time=crossing,
        )
        for flips, crossing in zip(headline.flip_rows, headline.run_crossings)
    ]
    return Fig2Result(
        theory=theory,
        runs=simulated,
        threshold=headline.threshold,
        mean_crossing_theory=headline.mean_crossing_theory,
        expected_hitting_theory=headline.expected_hitting_theory,
        median_success_time_theory=headline.median_success_time_theory,
        crossing_times_simulated=headline.crossing_times_simulated,
    )


def tr_qm_feasibility_table(
    tr_values: Sequence[float],
    budget: float = RESET_INTERVAL,
    cells: int = DEFAULT_CELLS,
    confidence: float = 0.95,
) -> List[Tuple[float, float, float]]:
    """Rows of (tR, minimum qm, mean crossing time at that qm).

    Quantifies "With longer tR, the attack is harder" (E3).
    """
    table: List[Tuple[float, float, float]] = []
    threshold = cells // 2
    for tr in tr_values:
        qm = minimum_qm(threshold, tr, budget, cells, confidence)
        table.append((tr, qm, mean_crossing_time(threshold, qm, tr, cells)))
    return table
