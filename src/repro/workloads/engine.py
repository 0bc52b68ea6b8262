"""Workload classes: streaming, seeded flow/packet generation.

A :class:`WorkloadClass` binds an empirical size CDF
(:mod:`repro.workloads.cdf`), a load shaper
(:mod:`repro.workloads.shapers`) and an arrival model into a named
generator of :class:`~repro.flows.generators.FlowSpec` streams.  Six
classes ship: ``web-search``, ``data-mining``, ``diurnal``,
``flash-crowd``, ``incast`` and ``elephant-mice``.

Everything is **streaming**: :func:`iter_workload_specs` yields specs
lazily in start order, and
:func:`~repro.flows.generators.iter_flow_schedules` turns them into
per-flow packet schedules one flow at a time;
:func:`~repro.flows.generators.merge_flow_packets` merges those into one
time-ordered stream holding only the *active* flows' schedules, so a
million-flow trace never materialises.  Determinism: arrivals come from
one derived stream, and every per-flow attribute (5-tuple, size,
duration) comes from a ``derive_seed``-derived RNG keyed on the flow
index, so the streams replay exactly per seed and are independent of
each other.

``size_scale`` scales the sampled KB sizes (CI presets use scaled-down
flows so packet-level scenarios stay cheap); ``max_packets`` caps a
single flow's packet budget against the data-mining tail.

tR recalibration: :func:`measured_tr` computes the span statistic
Blink's Fig. 2 uses (active span + eviction timeout) from each flow's
schedule, giving each workload class its own tR for the analytical
model — see EXPERIMENTS.md, "Workload classes".
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple, hosts_in_prefix
from repro.flows.generators import FlowSpec, flow_spans
from repro.kernels import derive_seed
from repro.workloads.cdf import EmpiricalCDF, resolve_cdf
from repro.workloads.shapers import (
    ConstantShaper,
    DiurnalShaper,
    FlashCrowdShaper,
    RateShaper,
    shaped_arrival_times,
)

#: TCP payload bytes per full-size segment (1500 MTU - 40 headers).
MSS_BYTES = 1460.0

#: Safety cap on a single flow's packets (the data-mining tail reaches
#: ~0.7 GB); workload params may lower it, never exceed it by default.
DEFAULT_MAX_PACKETS = 2000


def size_to_packets(size_kb: float, max_packets: int = DEFAULT_MAX_PACKETS) -> int:
    """Packets needed to carry ``size_kb`` kilobytes (>= 1, capped)."""
    if size_kb <= 0:
        return 1
    return max(1, min(int(max_packets), math.ceil(size_kb * 1024.0 / MSS_BYTES)))


def _flow_tuple(index: int, dst_hosts: List[str], frng: random.Random,
                dst_port: int = 443) -> FiveTuple:
    """A diverse synthetic 5-tuple for legitimate flow ``index``."""
    return FiveTuple(
        src=f"10.{(index // 65025) % 250}.{(index // 255) % 255}.{index % 255 + 1}",
        dst=dst_hosts[frng.randrange(len(dst_hosts))],
        src_port=frng.randrange(1024, 65536),
        dst_port=dst_port,
        protocol=6,
    )


def _cdf_spec(
    workload: str,
    seed: int,
    index: int,
    start: float,
    cdf: EmpiricalCDF,
    dst_hosts: List[str],
    packet_rate: float,
    size_scale: float,
    max_packets: int,
    u_lo: float = 0.0,
    u_hi: float = 1.0,
) -> FlowSpec:
    """One legitimate flow: size from ``cdf`` restricted to [u_lo, u_hi].

    All randomness comes from a generator derived from the flow index,
    so flows are mutually independent and insertion-order free.
    """
    frng = random.Random(derive_seed("workload", workload, seed, "flow", index))
    u = u_lo + frng.random() * (u_hi - u_lo)
    size_kb = cdf.quantile(u) * size_scale
    packets = size_to_packets(size_kb, max_packets)
    return FlowSpec(
        flow=_flow_tuple(index, dst_hosts, frng),
        start=start,
        duration=packets / packet_rate,
        packet_rate=packet_rate,
        malicious=False,
        retransmit_probability=0.0,
        sends_fin=True,
    )


# -- the per-class builders -------------------------------------------------


def _poisson_cdf_builder(cdf_name: str, shaper_factory: Callable[[float, Dict], RateShaper]):
    """A builder: shaped Poisson arrivals, sizes from ``cdf_name``."""

    def build(name: str, seed: int, horizon: float, p: Dict[str, object]
              ) -> Iterator[FlowSpec]:
        cdf = resolve_cdf(cdf_name)
        shaper = shaper_factory(horizon, p)
        arrivals = random.Random(derive_seed("workload", name, seed, "arrivals"))
        dst_hosts = list(hosts_in_prefix(str(p["prefix"]), 250))
        times = shaped_arrival_times(float(p["rate"]), horizon, shaper, arrivals)
        for index, start in enumerate(times):
            yield _cdf_spec(
                name, seed, index, start, cdf, dst_hosts,
                packet_rate=float(p["packet_rate"]),
                size_scale=float(p["size_scale"]),
                max_packets=int(p["max_packets"]),
            )

    return build


def _incast_builder(name: str, seed: int, horizon: float, p: Dict[str, object]
                    ) -> Iterator[FlowSpec]:
    """Synchronised fan-in bursts: ``fan_in`` flows every ``period``.

    The many-to-one pattern TCP incast studies use; sizes come from the
    web-search body (the top ``1 - body_fraction`` of the CDF is left
    off so a burst is many small responses, not one elephant).
    """
    cdf = resolve_cdf(str(p["cdf"]))
    dst_hosts = list(hosts_in_prefix(str(p["prefix"]), 250))
    period = float(p["period"])
    fan_in = int(p["fan_in"])
    if period <= 0 or fan_in <= 0:
        raise ConfigurationError("incast needs positive period and fan_in")
    index = 0
    epoch = period
    while epoch < horizon:
        for _ in range(fan_in):
            yield _cdf_spec(
                name, seed, index, epoch, cdf, dst_hosts,
                packet_rate=float(p["packet_rate"]),
                size_scale=float(p["size_scale"]),
                max_packets=int(p["max_packets"]),
                u_hi=float(p["body_fraction"]),
            )
            index += 1
        epoch += period


def _elephant_mice_builder(name: str, seed: int, horizon: float,
                           p: Dict[str, object]) -> Iterator[FlowSpec]:
    """A bimodal mix: long-lived data-mining elephants among mice.

    Each arrival is an elephant with probability ``elephant_fraction``
    (decided by the flow's own derived RNG, so thinning one population
    never perturbs the other): elephants draw from the data-mining
    tail, mice from the web-search body.
    """
    mice_cdf = resolve_cdf("web-search")
    elephant_cdf = resolve_cdf("data-mining")
    arrivals = random.Random(derive_seed("workload", name, seed, "arrivals"))
    dst_hosts = list(hosts_in_prefix(str(p["prefix"]), 250))
    times = shaped_arrival_times(
        float(p["rate"]), horizon, ConstantShaper(), arrivals
    )
    fraction = float(p["elephant_fraction"])
    tail_lo = float(p["tail_fraction"])
    for index, start in enumerate(times):
        chooser = random.Random(derive_seed("workload", name, seed, "kind", index))
        if chooser.random() < fraction:
            yield _cdf_spec(
                name, seed, index, start, elephant_cdf, dst_hosts,
                packet_rate=float(p["packet_rate"]),
                size_scale=float(p["size_scale"]),
                max_packets=int(p["max_packets"]),
                u_lo=tail_lo,
            )
        else:
            yield _cdf_spec(
                name, seed, index, start, mice_cdf, dst_hosts,
                packet_rate=float(p["packet_rate"]),
                size_scale=float(p["size_scale"]),
                max_packets=int(p["max_packets"]),
                u_hi=tail_lo,
            )


@dataclass(frozen=True)
class WorkloadClass:
    """One named workload: builder + defaults + load profile."""

    name: str
    description: str
    cdf: str
    defaults: Mapping[str, object]
    builder: Callable[[str, int, float, Dict[str, object]], Iterator[FlowSpec]]
    #: Declarative load shape, consumed by scenario bindings that map
    #: workload intensity onto attack knobs (PCC sway, Pytheas load).
    profile: Mapping[str, float]


_COMMON_DEFAULTS: Dict[str, object] = {
    "rate": 8.0,              # base arrivals/s
    "packet_rate": 4.0,       # packets/s while a flow is active
    "prefix": "198.51.100.0/24",
    "size_scale": 1.0,        # multiply sampled KB sizes
    "max_packets": DEFAULT_MAX_PACKETS,
}


def _merge_defaults(extra: Dict[str, object]) -> Dict[str, object]:
    merged = dict(_COMMON_DEFAULTS)
    merged.update(extra)
    return merged


WORKLOAD_CLASSES: Dict[str, WorkloadClass] = {}


def _register(cls: WorkloadClass) -> WorkloadClass:
    WORKLOAD_CLASSES[cls.name] = cls
    return cls


_register(WorkloadClass(
    name="web-search",
    description="Poisson arrivals, DCTCP web-search flow sizes",
    cdf="web-search",
    defaults=_merge_defaults({}),
    builder=_poisson_cdf_builder("web-search", lambda horizon, p: ConstantShaper()),
    profile={"mean_multiplier": 1.0, "peak_multiplier": 1.0, "period": 60.0},
))

_register(WorkloadClass(
    name="data-mining",
    description="Poisson arrivals, VL2 data-mining sizes (heavy tail)",
    cdf="data-mining",
    defaults=_merge_defaults({"rate": 6.0}),
    builder=_poisson_cdf_builder("data-mining", lambda horizon, p: ConstantShaper()),
    profile={"mean_multiplier": 1.0, "peak_multiplier": 1.0, "period": 60.0},
))

_register(WorkloadClass(
    name="diurnal",
    description="web-search sizes under a compressed day/night rate curve",
    cdf="web-search",
    defaults=_merge_defaults({"trough": 0.25}),
    builder=_poisson_cdf_builder(
        "web-search",
        lambda horizon, p: DiurnalShaper(
            period=horizon, trough=float(p["trough"]), peak_time=horizon / 2.0
        ),
    ),
    profile={"mean_multiplier": 0.625, "peak_multiplier": 1.0, "period": 60.0},
))

_register(WorkloadClass(
    name="flash-crowd",
    description="web-search sizes with a mid-run flash-crowd surge",
    cdf="web-search",
    defaults=_merge_defaults({"surge_amplitude": 6.0}),
    builder=_poisson_cdf_builder(
        "web-search",
        lambda horizon, p: FlashCrowdShaper(
            at=horizon * 0.4,
            duration=horizon * 0.2,
            amplitude=float(p["surge_amplitude"]),
            ramp=horizon * 0.05,
        ),
    ),
    profile={"mean_multiplier": 1.75, "peak_multiplier": 6.0, "period": 12.0},
))

_register(WorkloadClass(
    name="incast",
    description="synchronised fan-in bursts of small web-search responses",
    cdf="web-search",
    defaults=_merge_defaults({
        "period": 2.0, "fan_in": 24, "body_fraction": 0.6, "cdf": "web-search",
    }),
    builder=_incast_builder,
    profile={"mean_multiplier": 1.0, "peak_multiplier": 24.0, "period": 2.0},
))

_register(WorkloadClass(
    name="elephant-mice",
    description="bimodal mix: data-mining elephants among web-search mice",
    cdf="data-mining",
    defaults=_merge_defaults({
        "elephant_fraction": 0.1, "tail_fraction": 0.9,
    }),
    builder=_elephant_mice_builder,
    profile={"mean_multiplier": 1.0, "peak_multiplier": 1.0, "period": 60.0},
))


def workload_names() -> List[str]:
    return sorted(WORKLOAD_CLASSES)


def resolve_workload(name: str) -> WorkloadClass:
    try:
        return WORKLOAD_CLASSES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload class {name!r}; choose from {workload_names()}"
        ) from None


def iter_workload_specs(
    name: str, seed: int = 0, horizon: float = 60.0, **overrides: object
) -> Iterator[FlowSpec]:
    """Stream one workload's flow specs in start order, lazily.

    ``overrides`` must name known parameters of the class (its defaults
    plus the common knobs); unknown keys raise, so scenario specs fail
    loudly instead of silently ignoring a typo.
    """
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    cls = resolve_workload(name)
    params = dict(cls.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ConfigurationError(
                f"workload {name!r} has no parameter {key!r}; "
                f"known: {sorted(params)}"
            )
        params[key] = value
    return cls.builder(name, int(seed), float(horizon), params)


# -- Blink tR recalibration -------------------------------------------------


def measured_tr(
    name: str,
    seed: int = 0,
    horizon: float = 60.0,
    eviction_timeout: Optional[float] = None,
    **overrides: object,
) -> float:
    """The Blink sampled-time statistic tR for one workload class.

    The mean per-flow active span plus the eviction timeout, over the
    spans :func:`~repro.flows.generators.flow_spans` reads from each
    flow's schedule (seeded as :func:`~repro.flows.generators.emit_trace`
    seeds it) — the statistic :class:`~repro.flows.caida.
    SyntheticCaidaTrace` reports for its prefixes.
    """
    from repro.flows.caida import EVICTION_TIMEOUT

    timeout = EVICTION_TIMEOUT if eviction_timeout is None else eviction_timeout
    specs = iter_workload_specs(name, seed=seed, horizon=horizon, **overrides)
    spans, _packets = flow_spans(
        specs, derive_seed("workload", name, seed, "packets")
    )
    if not spans:
        raise ConfigurationError(f"workload {name!r} produced no packets")
    total = sum(last - first for first, last in spans.values())
    return total / len(spans) + timeout


@lru_cache(maxsize=64)
def _tr_cached(name: str, seed: int, horizon: float, overrides_json: str) -> float:
    return measured_tr(name, seed=seed, horizon=horizon,
                       **json.loads(overrides_json))


def tr_for_workload(
    name: str, seed: int = 0, horizon: float = 60.0, **overrides: object
) -> float:
    """Memoised :func:`measured_tr` — scenario resolution calls this on
    every run, so repeated lookups must be free."""
    return _tr_cached(
        name, int(seed), float(horizon), json.dumps(overrides, sort_keys=True)
    )
