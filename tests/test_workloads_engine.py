"""Workload engine: determinism, streaming parity, bounded memory.

The engine's contract has three legs:

* **Determinism** — the same ``(class, seed, params)`` always produces
  the same spec stream, and seeds are independent per flow (the
  satellite-4 regression: splicing a flow into a schedule must not
  perturb any other flow's packets).
* **Streaming parity** — :func:`merge_flow_packets` over a workload's
  lazily generated schedules (rank = start position) renders the
  records of the offline :func:`emit_trace`, byte for byte and in
  order, for every shipped workload class; :func:`measured_tr` equals
  the same statistic read from that trace.
* **Bounded memory** — a million-flow trace streams through the merge's
  heap, whose peak occupancy tracks flow *concurrency*, not trace
  length.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple
from repro.flows.caida import EVICTION_TIMEOUT
from repro.flows.generators import (
    FlowSpec,
    emit_trace,
    flow_stream_seed,
    iter_flow_schedules,
    merge_flow_packets,
)
from repro.kernels import derive_seed
from repro.netsim.trace import TraceRecord
from repro.workloads import engine
from repro.workloads.engine import (
    DEFAULT_MAX_PACKETS,
    MSS_BYTES,
    WORKLOAD_CLASSES,
    iter_workload_specs,
    measured_tr,
    size_to_packets,
    tr_for_workload,
    workload_names,
)

#: Cheap packet-level preset shared by the parity tests.
FAST = {"size_scale": 0.05, "max_packets": 200}


# -- size_to_packets ---------------------------------------------------------


def test_size_to_packets_floors_and_caps():
    assert size_to_packets(0.0) == 1
    assert size_to_packets(-3.0) == 1
    assert size_to_packets(1.0) == 1  # 1 KB < one MSS
    assert size_to_packets(1460.0 / 1024.0) == 1  # exactly one MSS
    assert size_to_packets(666667.0) == DEFAULT_MAX_PACKETS
    assert size_to_packets(666667.0, max_packets=50) == 50
    assert size_to_packets(10.0) == math.ceil(10.0 * 1024.0 / MSS_BYTES)


# -- spec streams ------------------------------------------------------------


class TestSpecStreams:
    def test_registry_names(self):
        assert workload_names() == sorted(
            ["web-search", "data-mining", "diurnal", "flash-crowd",
             "incast", "elephant-mice"]
        )

    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_deterministic_per_seed(self, name):
        a = list(iter_workload_specs(name, seed=3, horizon=20.0, **FAST))
        b = list(iter_workload_specs(name, seed=3, horizon=20.0, **FAST))
        assert a == b

    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_seeds_differ(self, name):
        a = list(iter_workload_specs(name, seed=0, horizon=20.0, **FAST))
        b = list(iter_workload_specs(name, seed=1, horizon=20.0, **FAST))
        assert a != b

    def test_unknown_class(self):
        with pytest.raises(ConfigurationError, match="unknown workload class"):
            list(iter_workload_specs("bittorrent"))

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            list(iter_workload_specs("web-search", ratee=9.0))

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            iter_workload_specs("web-search", horizon=0.0)

    def test_overrides_take_effect(self):
        base = list(iter_workload_specs("incast", horizon=20.0, fan_in=4))
        wide = list(iter_workload_specs("incast", horizon=20.0, fan_in=8))
        assert len(wide) == 2 * len(base)

    def test_streaming_is_lazy(self):
        """The spec iterator does work on demand, not at call time."""
        stream = iter_workload_specs("web-search", horizon=10**6)
        first = next(stream)
        assert first.start > 0.0  # no horizon-length materialisation


# -- satellite 4: flow-identity RNG ------------------------------------------


class TestFlowIdentityRng:
    def test_seed_depends_on_identity_not_position(self):
        spec = next(iter_workload_specs("web-search", seed=0, horizon=20.0))
        assert flow_stream_seed(7, spec) == flow_stream_seed(7, spec)
        moved = FlowSpec(
            flow=spec.flow, start=spec.start + 1.0, duration=spec.duration,
            packet_rate=spec.packet_rate,
        )
        assert flow_stream_seed(7, spec) != flow_stream_seed(7, moved)

    def test_insertion_does_not_perturb_other_flows(self):
        """Splicing one extra flow leaves every other flow's packets
        byte-identical — the per-flow RNG regression this PR fixed."""
        specs = list(iter_workload_specs("web-search", seed=0, horizon=20.0))
        extra = FlowSpec(
            flow=FiveTuple(src="203.0.113.5", dst="198.51.100.77",
                           src_port=5555, dst_port=443, protocol=6),
            start=specs[len(specs) // 2].start,
            duration=2.0,
            packet_rate=4.0,
        )
        spliced = sorted(specs + [extra], key=lambda s: s.start)
        base = emit_trace(specs, seed=0)
        with_extra = emit_trace(spliced, seed=0)
        original = [r for r in with_extra if r.flow != extra.flow]
        assert original == list(base)

    def test_removal_does_not_perturb_other_flows(self):
        specs = list(iter_workload_specs("data-mining", seed=1, horizon=15.0,
                                         **FAST))
        victim = specs[3]
        thinned = [s for s in specs if s is not victim]
        base = [r for r in emit_trace(specs, seed=0) if r.flow != victim.flow]
        assert base == list(emit_trace(thinned, seed=0))


# -- streaming parity --------------------------------------------------------


def _ranked(specs, seed):
    """Each flow's schedule as the merge takes it, rank = start position."""
    for rank, (spec, times, flags) in enumerate(iter_flow_schedules(specs, seed)):
        yield rank, spec, times, flags


def _merged_records(specs, seed):
    """The merged stream rendered as :func:`emit_trace` renders records."""
    return [
        TraceRecord(time, spec.flow, 40 if fin else 1500, "ingress", retrans, fin,
                    spec.malicious)
        for time, _rank, _index, spec, retrans, fin in merge_flow_packets(
            _ranked(specs, seed)
        )
    ]


class TestStreamingParity:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_stream_matches_emit_trace(self, name):
        """Byte-identical records in identical order, per class."""
        specs = list(iter_workload_specs(name, seed=0, horizon=20.0, **FAST))
        offline = list(emit_trace(specs, seed=5))
        assert _merged_records(iter(specs), seed=5) == offline

    def test_decreasing_starts_rejected(self):
        specs = list(iter_workload_specs("web-search", seed=0, horizon=10.0))
        backwards = [specs[1], specs[0]]
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            _merged_records(backwards, seed=0)

    def test_empty_stream(self):
        occupancy = _Occupancy().drain([])
        assert (occupancy.admitted, occupancy.held, occupancy.emitted) == (0, 0, 0)
        assert occupancy.peak_pending == 0


# -- measured_tr oracle ------------------------------------------------------


def _trace_tr(specs, seed):
    """tR read from the rendered trace's spans, summed in their order."""
    spans = emit_trace(specs, seed=seed).flow_activity_spans()
    total = sum(last - first for first, last in spans.values())
    return total / len(spans) + EVICTION_TIMEOUT


class TestMeasuredTrOracle:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_equals_trace_spans(self, name):
        """Bit for bit, the statistic of the materialised trace."""
        specs = list(iter_workload_specs(name, seed=1, horizon=20.0, **FAST))
        expected = _trace_tr(specs, derive_seed("workload", name, 1, "packets"))
        got = measured_tr(name, seed=1, horizon=20.0, **FAST)
        assert got.hex() == expected.hex()

    def test_one_shared_five_tuple(self):
        """Every flow on one 5-tuple: one span, from the first flow's first
        packet to the last packet of any of them."""
        specs = list(_short_flows(300, 0.5))
        seed = derive_seed("workload", "web-search", 0, "packets")
        assert len(emit_trace(specs, seed=seed).flow_activity_spans()) == 1
        assert _measured_tr_of(specs).hex() == _trace_tr(specs, seed).hex()

    @given(
        shape=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # 5-tuple (repeats allowed)
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # start
                st.sampled_from([0.0, 0.25, 1.0, 3.0]),  # duration
                st.booleans(),  # sends_fin
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_specs_equal_trace_spans(self, shape):
        """Repeated 5-tuples, zero durations, FIN-only and silent flows."""
        specs = sorted(
            (
                FlowSpec(
                    flow=FiveTuple("10.0.0.1", "198.51.100.9", 1024 + port, 443),
                    start=start, duration=duration, packet_rate=4.0,
                    sends_fin=fin,
                )
                for port, start, duration, fin in shape
            ),
            key=lambda spec: spec.start,
        )
        seed = derive_seed("workload", "web-search", 0, "packets")
        if not emit_trace(specs, seed=seed).flow_activity_spans():
            with pytest.raises(ConfigurationError, match="no packets"):
                _measured_tr_of(specs)
            return
        assert _measured_tr_of(specs).hex() == _trace_tr(specs, seed).hex()

    def test_decreasing_starts_rejected(self):
        specs = list(iter_workload_specs("web-search", seed=0, horizon=10.0))
        with pytest.raises(ConfigurationError, match="decreasing start"):
            _measured_tr_of([specs[1], specs[0]])


def _measured_tr_of(specs):
    """``measured_tr`` with ``specs`` standing in for web-search seed 0."""
    with mock.patch.object(engine, "iter_workload_specs", lambda *a, **k: iter(specs)):
        return measured_tr("web-search", seed=0)


# -- bounded memory ----------------------------------------------------------


class _Occupancy:
    """Counts what one merge holds: the lazy input generator adds each
    admitted flow's records to ``held``, draining the merge counts
    ``emitted``, and ``peak_pending`` is the most held but not yet
    emitted at any admission."""

    def __init__(self):
        self.admitted = self.held = self.emitted = self.peak_pending = 0

    def _flows(self, specs, seed):
        for rank, spec, times, flags in _ranked(specs, seed):
            self.held += len(times) + spec.sends_fin
            self.peak_pending = max(self.peak_pending, self.held - self.emitted)
            self.admitted += 1
            yield rank, spec, times, flags

    def drain(self, specs, seed=0):
        for _ in merge_flow_packets(self._flows(specs, seed)):
            self.emitted += 1
        return self


def _short_flows(n, concurrency_window=0.25):
    """A lazy generator of n one-packet flows, ~concurrency_window apart."""
    tpl = FiveTuple(src="10.0.0.1", dst="198.51.100.9",
                    src_port=1024, dst_port=443, protocol=6)
    gap = concurrency_window / 100.0
    for i in range(n):
        yield FlowSpec(
            flow=tpl, start=i * gap, duration=concurrency_window,
            packet_rate=4.0, sends_fin=False,
        )


class TestBoundedMemory:
    def test_million_flow_trace_streams(self):
        """10^6 flows stream through with peak heap occupancy tracking
        concurrency (~100 active flows), not trace length.

        The acceptance check for the streaming merge: the full trace
        (over a million records) never materialises.
        """
        occupancy = _Occupancy().drain(_short_flows(1_000_000))
        assert occupancy.admitted == 1_000_000
        assert occupancy.emitted == occupancy.held >= 1_000_000
        # ~100 concurrently active flows, a few records each; orders of
        # magnitude below the emitted count is the invariant that matters.
        assert occupancy.peak_pending < 1_000

    def test_peak_pending_tracks_concurrency(self):
        """Doubling flow overlap doubles peak occupancy; trace length
        (flow count) alone does not move it."""
        short = _Occupancy().drain(_short_flows(2_000, 0.25))
        long_ = _Occupancy().drain(_short_flows(2_000, 0.5))
        many = _Occupancy().drain(_short_flows(4_000, 0.25))
        assert long_.peak_pending > 1.5 * short.peak_pending
        assert many.peak_pending < 2 * short.peak_pending


# -- tR recalibration cache --------------------------------------------------


def test_tr_for_workload_memoised_and_exact():
    direct = measured_tr("incast", seed=0, horizon=30.0, **FAST)
    cached_first = tr_for_workload("incast", seed=0, horizon=30.0, **FAST)
    cached_second = tr_for_workload("incast", seed=0, horizon=30.0, **FAST)
    assert cached_first == direct
    assert cached_second == direct
