"""Composable load shapers: time-varying arrival-rate multipliers.

A :class:`RateShaper` maps simulation time to a non-negative multiplier
on a base Poisson arrival rate.  Arrivals are drawn by Lewis thinning
(:func:`shaped_arrival_times`): candidates at the *envelope* rate, each
accepted with probability ``multiplier(t) / max_multiplier``.  Every
candidate consumes exactly two draws whether accepted or not, so the
arrival stream of one shaper cannot perturb any other seeded stream —
the same insertion-independence contract the fault injectors follow.

Shapers compose multiplicatively (:class:`ComposeShaper`) and have a
compact spec grammar mirroring ``--faults``::

    diurnal:period=120,trough=0.3
    flash-crowd:at=40,duration=20,amplitude=6;diurnal:period=200

parsed by :func:`parse_shaper`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.core.errors import ConfigurationError


class RateShaper:
    """Base class: a deterministic rate multiplier over time."""

    #: Spec-grammar kind (and ``to_spec`` prefix).
    kind: str = ""

    def multiplier(self, t: float) -> float:
        raise NotImplementedError

    def max_multiplier(self) -> float:
        """A finite upper bound on ``multiplier`` — the thinning envelope."""
        raise NotImplementedError

    def mean_multiplier(self, horizon: float, steps: int = 512) -> float:
        """Midpoint-rule average multiplier over ``[0, horizon]``."""
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        dt = horizon / steps
        return sum(self.multiplier((i + 0.5) * dt) for i in range(steps)) / steps

    def to_spec(self) -> str:
        raise NotImplementedError


class ConstantShaper(RateShaper):
    """A flat multiplier (the identity shaper at factor 1.0)."""

    kind = "constant"

    def __init__(self, factor: float = 1.0):
        if factor < 0:
            raise ConfigurationError("factor must be >= 0")
        self.factor = float(factor)

    def multiplier(self, t: float) -> float:
        return self.factor

    def max_multiplier(self) -> float:
        return self.factor

    def to_spec(self) -> str:
        return f"constant:factor={self.factor:g}"


class DiurnalShaper(RateShaper):
    """A cosine day/night curve: 1.0 at the peak, ``trough`` opposite.

    ``m(t) = trough + (1 - trough) * (1 + cos(2π (t - peak_time) /
    period)) / 2`` — the classic diurnal load model, compressed to the
    simulation horizon by choosing ``period``.
    """

    kind = "diurnal"

    def __init__(self, period: float = 86400.0, trough: float = 0.25,
                 peak_time: float = 0.0):
        if period <= 0:
            raise ConfigurationError("period must be positive")
        if not 0.0 <= trough <= 1.0:
            raise ConfigurationError("trough must be in [0, 1]")
        self.period = float(period)
        self.trough = float(trough)
        self.peak_time = float(peak_time)

    def multiplier(self, t: float) -> float:
        phase = 2.0 * math.pi * (t - self.peak_time) / self.period
        return self.trough + (1.0 - self.trough) * (1.0 + math.cos(phase)) / 2.0

    def max_multiplier(self) -> float:
        return 1.0

    def to_spec(self) -> str:
        return (
            f"diurnal:period={self.period:g},trough={self.trough:g},"
            f"peak_time={self.peak_time:g}"
        )


class FlashCrowdShaper(RateShaper):
    """A transient surge: ramp up to ``amplitude``×, hold, ramp down.

    Baseline 1.0 outside ``[at, at + duration]``; trapezoidal inside
    (linear ``ramp``-second edges).
    """

    kind = "flash-crowd"

    def __init__(self, at: float, duration: float, amplitude: float = 5.0,
                 ramp: float = 0.0):
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if amplitude < 1.0:
            raise ConfigurationError("amplitude must be >= 1 (a surge)")
        if ramp < 0 or 2 * ramp > duration:
            raise ConfigurationError("ramp must be >= 0 and fit inside duration")
        self.at = float(at)
        self.duration = float(duration)
        self.amplitude = float(amplitude)
        self.ramp = float(ramp)

    def multiplier(self, t: float) -> float:
        dt = t - self.at
        if dt < 0 or dt > self.duration:
            return 1.0
        if self.ramp > 0 and dt < self.ramp:
            return 1.0 + (self.amplitude - 1.0) * (dt / self.ramp)
        if self.ramp > 0 and dt > self.duration - self.ramp:
            return 1.0 + (self.amplitude - 1.0) * ((self.duration - dt) / self.ramp)
        return self.amplitude

    def max_multiplier(self) -> float:
        return self.amplitude

    def to_spec(self) -> str:
        duration = f"{self.duration:g}"
        ramp = f"{self.ramp:g}"
        if 2 * float(ramp) > float(duration):
            # %g rounded the ramp past half the rounded duration, which
            # the constructor rejects: pin it to that half, spelled in
            # %g when the half survives it and exactly otherwise.
            half = float(duration) / 2
            ramp = f"{half:g}" if 2 * float(f"{half:g}") <= float(duration) else repr(half)
        return (
            f"flash-crowd:at={self.at:g},duration={duration},"
            f"amplitude={self.amplitude:g},ramp={ramp}"
        )


class ComposeShaper(RateShaper):
    """The product of several shapers (e.g. diurnal × flash crowd)."""

    kind = "compose"

    def __init__(self, shapers: Sequence[RateShaper]):
        if not shapers:
            raise ConfigurationError("compose needs at least one shaper")
        self.shapers: Tuple[RateShaper, ...] = tuple(shapers)

    def multiplier(self, t: float) -> float:
        product = 1.0
        for shaper in self.shapers:
            product *= shaper.multiplier(t)
        return product

    def max_multiplier(self) -> float:
        product = 1.0
        for shaper in self.shapers:
            product *= shaper.max_multiplier()
        return product

    def to_spec(self) -> str:
        return ";".join(shaper.to_spec() for shaper in self.shapers)


#: kind -> (constructor, {param: coercion}).
SHAPER_KINDS: Dict[str, Tuple[Callable[..., RateShaper], Dict[str, Callable]]] = {
    "constant": (ConstantShaper, {"factor": float}),
    "diurnal": (DiurnalShaper, {"period": float, "trough": float, "peak_time": float}),
    "flash-crowd": (
        FlashCrowdShaper,
        {"at": float, "duration": float, "amplitude": float, "ramp": float},
    ),
}


def parse_shaper(spec: str) -> RateShaper:
    """Parse ``kind:key=value,...;kind:...`` into a (composed) shaper."""
    if not spec or not spec.strip():
        raise ConfigurationError("empty shaper spec")
    shapers: List[RateShaper] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, arg_text = clause.partition(":")
        kind = kind.strip()
        if kind not in SHAPER_KINDS:
            raise ConfigurationError(
                f"unknown shaper kind {kind!r}; choose from {sorted(SHAPER_KINDS)}"
            )
        ctor, coercions = SHAPER_KINDS[kind]
        kwargs: Dict[str, float] = {}
        if arg_text.strip():
            for pair in arg_text.split(","):
                key, eq, raw = pair.partition("=")
                key = key.strip()
                if not eq or key not in coercions:
                    raise ConfigurationError(
                        f"shaper {kind!r} got bad parameter {pair.strip()!r}"
                    )
                try:
                    kwargs[key] = coercions[key](raw.strip())
                except ValueError:
                    raise ConfigurationError(
                        f"shaper {kind!r} parameter {key!r} is not numeric: {raw!r}"
                    ) from None
        shapers.append(ctor(**kwargs))
    if not shapers:
        raise ConfigurationError("empty shaper spec")
    return shapers[0] if len(shapers) == 1 else ComposeShaper(shapers)


def shaped_arrival_times(
    rate: float, horizon: float, shaper: RateShaper, rng: random.Random
) -> Iterator[float]:
    """Seeded non-homogeneous Poisson arrivals by Lewis thinning.

    Candidates arrive at the envelope rate ``rate * max_multiplier``;
    each is accepted with probability ``multiplier(t) / max``.  Exactly
    two draws per candidate, accepted or not, so the draw count — and
    therefore every downstream derived stream — is independent of the
    shaper's accept/reject outcomes.
    """
    if rate <= 0 or horizon <= 0:
        raise ConfigurationError("rate and horizon must be positive")
    peak = rate * shaper.max_multiplier()
    if peak <= 0:
        return
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        accept = rng.random() * peak
        if t >= horizon:
            return
        if accept <= rate * shaper.multiplier(t):
            yield t
