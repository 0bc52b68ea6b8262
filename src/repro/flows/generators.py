"""Workload generation: flow schedules and trace emission.

The Blink experiments consume packet traces; this module generates them
from declarative :class:`FlowSpec` schedules.  Legitimate flows follow
a Poisson arrival process with heavy-tailed durations; malicious flows
(Section 3.1's attack traffic) are persistent, always-active flows that
emit fake TCP retransmissions — duplicated sequence numbers — on a
schedule the attacker controls.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple, hosts_in_prefix
from repro.netsim.events import EventLoop
from repro.netsim.trace import Trace, TraceRecord


@dataclass(frozen=True)
class FlowSpec:
    """Declarative description of one flow in a workload.

    Attributes:
        flow: the 5-tuple.
        start: arrival time (s).
        duration: active lifetime (s); packets stop after
            ``start + duration``.
        packet_rate: mean packets/second while active.
        malicious: ground-truth attack marker.
        retransmit_probability: per-packet probability that the packet
            repeats the previous sequence number (fake or genuine
            retransmission).
        sends_fin: whether the flow terminates with a FIN (malicious
            flows deliberately never do — eviction only via reset).
        constant_rate: emit packets at fixed 1/packet_rate spacing
            instead of exponential gaps.  Attackers pace their packets
            deterministically so no gap ever exceeds Blink's 2 s
            eviction timeout ("flows that always remain active").
    """

    flow: FiveTuple
    start: float
    duration: float
    packet_rate: float = 1.0
    malicious: bool = False
    retransmit_probability: float = 0.0
    sends_fin: bool = True
    constant_rate: bool = False

    def __post_init__(self) -> None:
        if self.duration < 0 or self.packet_rate <= 0:
            raise ConfigurationError("duration must be >= 0 and packet_rate > 0")
        if not 0.0 <= self.retransmit_probability <= 1.0:
            raise ConfigurationError("retransmit_probability must be in [0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration


class DurationDistribution:
    """Heavy-tailed flow duration model: lognormal body + Pareto tail.

    Internet flow durations are famously heavy-tailed; a lognormal body
    with a small Pareto tail reproduces the "median ≈ 5 s, half of
    top-20 prefixes ≥ 10 s mean" statistics the paper extracted from
    CAIDA traces, without needing the (unavailable) traces themselves.
    """

    def __init__(
        self,
        median: float = 5.0,
        sigma: float = 0.8,
        tail_probability: float = 0.08,
        tail_alpha: float = 1.5,
        tail_scale: float = 30.0,
        max_duration: float = 600.0,
    ):
        if median <= 0 or sigma <= 0:
            raise ConfigurationError("median and sigma must be positive")
        if not 0.0 <= tail_probability < 1.0:
            raise ConfigurationError("tail_probability must be in [0, 1)")
        self.median = median
        self.sigma = sigma
        self.tail_probability = tail_probability
        self.tail_alpha = tail_alpha
        self.tail_scale = tail_scale
        self.max_duration = max_duration

    def sample(self, rng: random.Random) -> float:
        if rng.random() < self.tail_probability:
            # Pareto tail: scale / U^(1/alpha)
            duration = self.tail_scale / (rng.random() ** (1.0 / self.tail_alpha))
        else:
            duration = math.exp(rng.gauss(math.log(self.median), self.sigma))
        return min(duration, self.max_duration)

    def mean_estimate(self, rng: random.Random, samples: int = 20000) -> float:
        return sum(self.sample(rng) for _ in range(samples)) / samples


def poisson_flow_schedule(
    destination_prefix: str,
    horizon: float,
    arrival_rate: float,
    duration_model: Optional[DurationDistribution] = None,
    packet_rate: float = 2.0,
    source_pool: int = 5000,
    seed: int = 0,
    dst_port: int = 443,
) -> List[FlowSpec]:
    """Poisson arrivals of legitimate flows toward one prefix.

    Sources are drawn from a synthetic pool; destinations are spread
    over the prefix's host addresses so 5-tuple hashes are diverse.
    """
    if horizon <= 0 or arrival_rate <= 0:
        raise ConfigurationError("horizon and arrival_rate must be positive")
    rng = random.Random(seed)
    durations = duration_model or DurationDistribution()
    dst_hosts = list(hosts_in_prefix(destination_prefix, min(250, source_pool)))
    specs: List[FlowSpec] = []
    t = 0.0
    flow_index = 0
    while True:
        t += rng.expovariate(arrival_rate)
        if t >= horizon:
            break
        flow = FiveTuple(
            src=f"10.{(flow_index // 65025) % 250}.{(flow_index // 255) % 255}.{flow_index % 255 + 1}",
            dst=dst_hosts[rng.randrange(len(dst_hosts))],
            src_port=rng.randrange(1024, 65536),
            dst_port=dst_port,
            protocol=6,
        )
        specs.append(
            FlowSpec(
                flow=flow,
                start=t,
                duration=durations.sample(rng),
                packet_rate=packet_rate,
                malicious=False,
                retransmit_probability=0.0,
                sends_fin=True,
            )
        )
        flow_index += 1
    return specs


def malicious_flow_schedule(
    destination_prefix: str,
    count: int,
    horizon: float,
    packet_rate: float = 2.0,
    retransmit_probability: float = 0.5,
    start_time: float = 0.0,
    seed: int = 1,
    spread_start: float = 5.0,
) -> List[FlowSpec]:
    """Persistent attack flows toward the victim prefix (Section 3.1).

    The flows (i) never finish and never go inactive, so once sampled
    they stay sampled; (ii) emit duplicate sequence numbers so Blink
    counts them as retransmitting.  "The attacker does not need to
    establish TCP connections with the victim" — these are blind
    injected segments.
    """
    if count <= 0:
        raise ConfigurationError("count must be positive")
    rng = random.Random(seed)
    dst_hosts = list(hosts_in_prefix(destination_prefix, min(250, max(count, 16))))
    specs: List[FlowSpec] = []
    for i in range(count):
        flow = FiveTuple(
            src=f"203.0.{(i // 250) % 250}.{i % 250 + 1}",
            dst=dst_hosts[rng.randrange(len(dst_hosts))],
            src_port=rng.randrange(1024, 65536),
            dst_port=443,
            protocol=6,
        )
        specs.append(
            FlowSpec(
                flow=flow,
                start=start_time + rng.uniform(0.0, spread_start),
                duration=horizon,  # always active until the end
                packet_rate=packet_rate,
                malicious=True,
                retransmit_probability=retransmit_probability,
                sends_fin=False,
                constant_rate=True,
            )
        )
    return specs


def steady_state_flow_schedule(
    destination_prefix: str,
    concurrent_flows: int,
    horizon: float,
    duration_model: Optional[DurationDistribution] = None,
    packet_rate: float = 2.0,
    seed: int = 0,
    dst_port: int = 443,
) -> List[FlowSpec]:
    """Maintain ``concurrent_flows`` active flows for the whole horizon.

    This is the population model of the paper's packet-level Blink
    experiment: a constant pool of legitimate flows (each finishing
    flow is immediately replaced by a fresh one) so the flow selector's
    cells are continuously occupied and contended.  Initial flows start
    mid-life (a random residual fraction of a sampled duration) to
    avoid a synchronised departure transient.
    """
    if concurrent_flows <= 0 or horizon <= 0:
        raise ConfigurationError("concurrent_flows and horizon must be positive")
    rng = random.Random(seed)
    durations = duration_model or DurationDistribution()
    dst_hosts = list(hosts_in_prefix(destination_prefix, 250))
    specs: List[FlowSpec] = []
    flow_index = 0

    def new_flow() -> FiveTuple:
        nonlocal flow_index
        flow = FiveTuple(
            src=f"10.{(flow_index // 65025) % 250}.{(flow_index // 255) % 255}.{flow_index % 255 + 1}",
            dst=dst_hosts[rng.randrange(len(dst_hosts))],
            src_port=rng.randrange(1024, 65536),
            dst_port=dst_port,
            protocol=6,
        )
        flow_index += 1
        return flow

    for _ in range(concurrent_flows):
        # Chain of flows occupying one "slot" for the whole horizon.
        duration = durations.sample(rng)
        # Residual life of the initial flow: uniform fraction.
        t = 0.0
        remaining = duration * rng.random()
        while t < horizon:
            end = min(t + remaining, horizon)
            specs.append(
                FlowSpec(
                    flow=new_flow(),
                    start=t,
                    duration=end - t,
                    packet_rate=packet_rate,
                    malicious=False,
                    retransmit_probability=0.0,
                    sends_fin=end < horizon,
                )
            )
            t = end
            remaining = durations.sample(rng)
    return specs


def flow_packet_schedule(
    spec: FlowSpec, flow_rng: random.Random
) -> Tuple[List[float], List[bool]]:
    """Bulk-compute one flow's packet times and retransmission flags.

    Reproduces, draw for draw, the inner loop :func:`emit_trace` has
    always run (the retransmission draw precedes the gap draw, and the
    first packet never draws for retransmission), so a schedule built
    from batches is byte-identical to the scalar rendering.  FIN
    emission is the caller's concern — it consumes no randomness.
    """
    times: List[float] = []
    flags: List[bool] = []
    t = spec.start
    end = spec.end
    retrans_p = spec.retransmit_probability
    rand = flow_rng.random
    last_was_data = False
    if spec.constant_rate:
        gap = 1.0 / spec.packet_rate
        while t < end:
            flags.append(last_was_data and rand() < retrans_p)
            times.append(t)
            last_was_data = True
            t += gap
    else:
        # Random.expovariate(rate), inlined: the same draw and the same
        # float operations, without a method call per packet.
        log = math.log
        rate = spec.packet_rate
        while t < end:
            flags.append(last_was_data and rand() < retrans_p)
            times.append(t)
            last_was_data = True
            t += -log(1.0 - rand()) / rate
    return times, flags


def flow_stream_seed(seed: int, spec: FlowSpec) -> int:
    """The RNG seed for one flow's packet stream.

    Derived from the workload seed plus the flow's *identity* (5-tuple
    and start time) via the sha256 scheme the fault injectors and
    kernels use — never from a shared parent generator or the spec's
    position.  Inserting, removing or reordering specs (e.g. a workload
    shaper splicing in a flash crowd) therefore cannot perturb any
    other flow's draws.
    """
    from repro.kernels import derive_seed

    return derive_seed("flow-packets", seed, spec.flow.packed(), spec.start)


def iter_flow_schedules(
    specs: Iterable[FlowSpec], seed: int = 0
) -> Iterator[Tuple[FlowSpec, List[float], List[bool]]]:
    """Per-flow packet batches, with the same RNG tree as :func:`emit_trace`.

    Each spec's stream is seeded by :func:`flow_stream_seed`, so any
    consumer — offline trace rendering, the event-driven driver, or the
    streaming workload engine — sees identical schedules for identical
    flows, regardless of what other specs surround them.  Accepts any iterable and yields
    lazily (one flow's batch in memory at a time).
    """
    # One generator re-seeded per flow: ``Random(x)`` is ``seed(x)`` on a
    # fresh instance, so each flow's stream is the same.
    flow_rng = random.Random()
    for spec in specs:
        flow_rng.seed(flow_stream_seed(seed, spec))
        times, flags = flow_packet_schedule(spec, flow_rng)
        yield spec, times, flags


#: Each 5-tuple's first and last packet time.
FlowSpans = Dict[FiveTuple, Tuple[float, float]]


def flow_spans(specs: Iterable[FlowSpec], seed: int = 0) -> Tuple[FlowSpans, int]:
    """The spans and the packet count of the trace :func:`emit_trace`
    renders from ``specs`` on ``seed``, read from the schedules.

    ``specs`` must be in non-decreasing start order (else
    :class:`ConfigurationError`).  A flow's span runs from its start
    (its first packet, or a zero-length flow's FIN) to its FIN, or to
    its last packet when it sends none; flows sharing a 5-tuple share
    one span.  Spans are kept in the order of their first packets, ties
    by position — the order of :meth:`~repro.netsim.trace.Trace.
    flow_activity_spans` on the rendered trace, so float sums agree.
    """
    spans: FlowSpans = {}
    packets = 0
    previous = -math.inf
    for spec, times, _flags in iter_flow_schedules(specs, seed):
        if spec.start < previous:
            raise ConfigurationError(
                f"flow spans need specs in start order, got a decreasing start: "
                f"{spec.start} < {previous}"
            )
        previous = spec.start
        packets += len(times) + spec.sends_fin
        if spec.sends_fin:
            last = spec.end
        elif times:
            last = times[-1]
        else:
            continue  # no packet at all
        first, seen = spans.get(spec.flow, (spec.start, last))
        spans[spec.flow] = (first, max(seen, last))
    return spans, packets


def merge_flow_packets(
    flows: Iterable[Tuple[int, FlowSpec, Sequence[float], Sequence[bool]]],
) -> Iterator[Tuple[float, int, int, FlowSpec, bool, bool]]:
    """Merge per-flow packet schedules into one ``(time, rank, index)`` stream.

    ``flows`` yields ``(rank, spec, times, flags)`` in non-decreasing
    ``spec.start`` (ranks are unique); a decreasing start raises
    :class:`ConfigurationError`.  Yields ``(time, rank, index, spec,
    is_retransmission, is_fin)``: each flow's data packets ``index``
    0..n-1, then, when ``spec.sends_fin``, its FIN as ``index`` n at
    ``spec.end``.  The heap holds one entry per *active* flow, and a
    flow is pulled from ``flows`` (so a lazy iterable generates its
    schedule) only once the heap head has reached its start — memory is
    bounded by flow concurrency, not trace length.

    The rank fixes the tie-break between equal times, and so which
    single-loop order the stream reproduces:

    * rank = spec index reproduces setup-time sequence allocation — the
      stable sort of :func:`emit_trace` and a loop preloaded in spec
      order;
    * rank = position in ``sorted(range(F), key=(start, spec index))``
      reproduces start-time allocation — the callback order of
      :func:`schedule_workload`, whose flow-start events fire in that
      order and each claim the next block of insertion sequences.
    """
    heap: List[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop
    replace = heapq.heapreplace
    pending = iter(flows)
    upcoming = next(pending, None)
    start = upcoming[1].start if upcoming is not None else math.inf
    last_start = -math.inf
    while True:
        # Admit every flow that could emit at or before the head: its
        # first packet is no earlier than its start.
        while upcoming is not None and (not heap or start <= heap[0][0]):
            if start < last_start:
                raise ConfigurationError(
                    "merge_flow_packets needs flows in non-decreasing "
                    f"start order: {start} < {last_start}"
                )
            last_start = start
            rank, spec, times, flags = upcoming
            n = len(times)
            if n:
                push(heap, (times[0], rank, 0, n, spec, times, flags))
            elif spec.sends_fin:
                push(heap, (spec.end, rank, 0, 0, spec, times, flags))
            upcoming = next(pending, None)
            if upcoming is not None:
                start = upcoming[1].start
        if not heap:
            return
        time, rank, index, n, spec, times, flags = heap[0]
        if index == n:
            yield time, rank, index, spec, False, True
            pop(heap)
            continue
        yield time, rank, index, spec, flags[index], False
        index += 1
        if index < n:
            replace(heap, (times[index], rank, index, n, spec, times, flags))
        elif spec.sends_fin:
            replace(heap, (spec.end, rank, index, n, spec, times, flags))
        else:
            pop(heap)


def emit_trace(
    specs: Sequence[FlowSpec],
    seed: int = 0,
    observation_point: str = "ingress",
    name: str = "workload",
) -> Trace:
    """Render a flow schedule into a packet :class:`Trace`.

    Packet gaps are exponential around each flow's ``packet_rate``;
    retransmissions repeat the previous record (marked ground-truth);
    FIN records close flows that send one.
    """
    records: List[TraceRecord] = []
    for spec, times, flags in iter_flow_schedules(specs, seed):
        for t, is_retransmission in zip(times, flags):
            records.append(
                TraceRecord(
                    time=t,
                    flow=spec.flow,
                    size=1500,
                    observation_point=observation_point,
                    is_retransmission=is_retransmission,
                    is_fin_or_rst=False,
                    malicious_ground_truth=spec.malicious,
                )
            )
        if spec.sends_fin:
            records.append(
                TraceRecord(
                    time=spec.end,
                    flow=spec.flow,
                    size=40,
                    observation_point=observation_point,
                    is_retransmission=False,
                    is_fin_or_rst=True,
                    malicious_ground_truth=spec.malicious,
                )
            )
    records.sort(key=lambda r: r.time)
    trace = Trace(name)
    trace.extend(records)
    return trace


#: Callback fired for every packet the event-driven driver emits:
#: ``(spec, time, is_retransmission, is_fin)``.
PacketCallback = Callable[[FlowSpec, float, bool, bool], None]


def schedule_workload(
    loop: EventLoop,
    specs: Sequence[FlowSpec],
    seed: int = 0,
    on_packet: Optional[PacketCallback] = None,
) -> int:
    """Drive a flow schedule *through the event loop* instead of offline.

    For each spec a transient flow-start event is queued at
    ``spec.start``; when it fires, the flow's whole packet batch (from
    :func:`flow_packet_schedule`, so byte-identical timing to
    :func:`emit_trace`) is bulk-loaded via
    :meth:`~repro.netsim.events.EventLoop.schedule_batch_at` — one
    shared event, O(1) appends on the calendar scheduler.  Per-flow
    RNG seeds come from :func:`flow_stream_seed` (flow identity, not
    spec order), preserving the :func:`emit_trace` RNG tree no matter
    when flows actually start or what else is scheduled around them.

    ``on_packet(spec, time, is_retransmission, is_fin)`` fires in event
    order.  Returns the number of flows scheduled.  When a timer fault
    is installed on the loop, batches fall back to individual transient
    events so dropped/skewed firings cannot desynchronise the batch
    cursor.
    """
    if on_packet is None:
        raise ConfigurationError("schedule_workload requires an on_packet callback")
    scheduled = 0
    for spec in specs:
        flow_seed = flow_stream_seed(seed, spec)

        def start(spec: FlowSpec = spec, flow_seed: int = flow_seed) -> None:
            times, flags = flow_packet_schedule(spec, random.Random(flow_seed))
            if loop.fault is None:
                if times:
                    cursor = [0]

                    def fire() -> None:
                        i = cursor[0]
                        cursor[0] = i + 1
                        on_packet(spec, times[i], flags[i], False)

                    loop.schedule_batch_at(times, fire, name="flow.packet")
            else:
                # A skewed flow-start may fire after some of its packet
                # times have passed; clamp those to "emit immediately".
                now = loop.now
                for t, flag in zip(times, flags):
                    loop.schedule_transient(
                        t if t > now else now,
                        lambda flag=flag: on_packet(spec, loop.now, flag, False),
                        name="flow.packet",
                    )
            if spec.sends_fin:
                fin_time = spec.end if spec.end > loop.now else loop.now
                loop.schedule_transient(
                    fin_time,
                    lambda: on_packet(spec, loop.now, False, True),
                    name="flow.fin",
                )

        loop.schedule_transient(spec.start, start, name="flow.start")
        scheduled += 1
    return scheduled


@dataclass
class WorkloadSummary:
    """Basic facts about a generated workload, for sanity checks."""

    total_flows: int
    malicious_flows: int
    total_packets: int
    malicious_packet_fraction: float
    horizon: float

    @property
    def qm(self) -> float:
        """Fraction of *flows* that are malicious (paper's qm)."""
        if self.total_flows == 0:
            return 0.0
        return self.malicious_flows / self.total_flows


def summarize_workload(specs: Sequence[FlowSpec], trace: Trace) -> WorkloadSummary:
    return summarize_packets(
        specs, len(trace), sum(1 for r in trace if r.malicious_ground_truth)
    )


def summarize_packets(
    specs: Sequence[FlowSpec], packets: int, malicious_packets: int
) -> WorkloadSummary:
    """:func:`summarize_workload` from packet counts, for a trace never built."""
    return WorkloadSummary(
        total_flows=len(specs),
        malicious_flows=sum(1 for s in specs if s.malicious),
        total_packets=packets,
        malicious_packet_fraction=malicious_packets / packets if packets else 0.0,
        horizon=max((s.end for s in specs), default=0.0),
    )


def blink_attack_workload(
    destination_prefix: str = "198.51.100.0/24",
    horizon: float = 510.0,
    legitimate_flows: int = 2000,
    malicious_flows: int = 105,
    duration_model: Optional[DurationDistribution] = None,
    packet_rate: float = 2.0,
    seed: int = 0,
) -> tuple:
    """The paper's packet-level experiment workload (Section 3.1).

    "We generated 2000 legitimate and 105 malicious flows
    (qm = 0.0525), and used the same tR = 8.37 s."  The legitimate
    population is a *steady-state pool* of ``legitimate_flows``
    concurrently active flows (finished flows are replaced), so the
    selector cells stay contended and qm = 105/2000 = 0.0525 is the
    fraction of active flows that is malicious; the 105 attack flows
    are persistent and start at t ≈ 0.

    Returns ``(specs, trace, summary)``.
    """
    legit = steady_state_flow_schedule(
        destination_prefix,
        concurrent_flows=legitimate_flows,
        horizon=horizon,
        duration_model=duration_model,
        packet_rate=packet_rate,
        seed=seed,
    )
    bad = malicious_flow_schedule(
        destination_prefix,
        count=malicious_flows,
        horizon=horizon,
        packet_rate=packet_rate,
        seed=seed + 1,
        spread_start=2.0,
    )
    specs = legit + bad
    trace = emit_trace(specs, seed=seed + 2, name="blink-attack")
    return specs, trace, summarize_workload(specs, trace)
