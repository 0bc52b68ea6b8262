"""Property-based exactness of every kernel against the scalar code.

Each batch kernel must equal the one-at-a-time code it batches:
occupancy counting and crossing extraction against the sorted flip
times, bloom bulk insert/query against ``add``/``in``, the sketch
hashes against ``fnv1a_64``/``partitioned_indices``, the PCC kernels
against ``allegro_utility``/``loss_for_target_utility`` and the
oscillation statistics against their definitions.  Hypothesis drives
the input space so shape corner cases — empty rows, duplicate flip
times, zero-length keys, saturating batches — are covered without
hand-enumeration.
"""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels

finite_times = st.floats(
    min_value=0.0, max_value=500.0, allow_nan=False, allow_infinity=False
)
flip_rows = st.lists(
    st.lists(finite_times, max_size=40).map(sorted), min_size=1, max_size=6
)
keys = st.lists(st.binary(max_size=24), min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(rows=flip_rows, times=st.lists(finite_times, min_size=1, max_size=30).map(sorted))
def test_occupancy_counts_exact(rows, times):
    expected = [[bisect_right(flips, t) for t in times] for flips in rows]
    assert kernels.blink_occupancy_counts(rows, times) == expected


@settings(max_examples=60, deadline=None)
@given(rows=flip_rows, threshold=st.integers(min_value=1, max_value=48))
def test_crossing_times_exact(rows, threshold):
    expected = [
        next((t for i, t in enumerate(flips, 1) if i == threshold), None)
        for flips in rows
    ]
    assert kernels.blink_crossing_times(rows, threshold) == expected


@settings(max_examples=40, deadline=None)
@given(items=keys, probes=keys, capacity=st.integers(min_value=1, max_value=500))
def test_bloom_membership_exact(items, probes, capacity):
    from repro.sketches.bloom import BloomFilter

    bulk = BloomFilter.for_capacity(capacity, 0.01)
    bulk.add_bulk(items)
    single = BloomFilter.for_capacity(capacity, 0.01)
    for item in items:
        single.add(item)
    # Same hash family, same bit layout: the filters are identical bit
    # for bit, so every query answer matches too.
    assert bytes(single._array) == bytes(bulk._array)
    assert single.inserted == bulk.inserted
    universe = items + probes
    assert bulk.query_bulk(universe) == [key in single for key in universe]


@settings(max_examples=60, deadline=None)
@given(items=keys)
def test_fnv1a_bulk_exact(items):
    from repro.flows.flow import fnv1a_64

    assert kernels.fnv1a_bulk(items) == [fnv1a_64(item) for item in items]


@settings(max_examples=60, deadline=None)
@given(
    items=keys,
    hashes=st.integers(min_value=1, max_value=5),
    extra_cells=st.integers(min_value=0, max_value=400),
)
def test_sketch_indices_exact(items, hashes, extra_cells):
    from repro.sketches.hashing import partitioned_indices

    cells = hashes + extra_cells
    expected = [partitioned_indices(key, hashes, cells) for key in items]
    assert kernels.sketch_indices(items, hashes, cells) == expected


@settings(max_examples=40, deadline=None)
@given(items=keys, capacity=st.integers(min_value=1, max_value=300))
def test_bloom_add_unique_bulk_matches_scalar(items, capacity):
    from repro.sketches.bloom import BloomFilter

    scalar = BloomFilter.for_capacity(capacity, 0.01)
    fresh = []
    for item in items:
        is_new = item not in scalar
        if is_new:
            scalar.add(item)
        fresh.append(is_new)
    bulk = BloomFilter.for_capacity(capacity, 0.01)
    assert bulk.add_unique_bulk(items) == fresh
    assert bytes(bulk._array) == bytes(scalar._array)
    assert bulk.inserted == scalar.inserted


# Small address/port alphabets so within-batch duplicate flows arise
# naturally — the bulk paths must resolve them exactly like the scalar
# observe loop (first occurrence is new, repeats are not).
flow_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    min_size=1,
    max_size=40,
)


def _make_flows(specs):
    from repro.flows.flow import FiveTuple

    return [
        FiveTuple(f"10.0.{a}.{b + 1}", "198.51.100.1", 1024 + a, 443)
        for a, b in specs
    ]


@settings(max_examples=25, deadline=None)
@given(specs=flow_specs, packets=st.integers(min_value=1, max_value=5))
def test_flowradar_observe_bulk_matches_sequential(specs, packets):
    from repro.sketches.flowradar import FlowRadar

    def state(fr):
        return (
            [(c.flow_xor, c.flow_count, c.packet_count) for c in fr.cells],
            bytes(fr.bloom._array),
            fr.bloom.inserted,
            fr.flows_seen,
            fr.packets_seen,
            fr._truth,
            fr._keys,
        )

    flows = _make_flows(specs)
    scalar = FlowRadar(cells=60, hashes=3)
    for flow in flows:
        scalar.observe(flow, packets=packets)
    bulk = FlowRadar(cells=60, hashes=3)
    bulk.observe_bulk(flows, packets=packets)
    assert state(bulk) == state(scalar)


@settings(max_examples=25, deadline=None)
@given(
    transits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.booleans()),
        min_size=1,
        max_size=40,
    ),
    injected=st.lists(st.integers(min_value=0, max_value=30), max_size=20),
)
def test_lossradar_bulk_matches_sequential(transits, injected):
    from repro.flows.flow import FiveTuple
    from repro.sketches.lossradar import LossRadarSegment, PacketId

    def state(segment):
        return (
            [(c.xor_sum, c.count) for c in segment.upstream.cells],
            [(c.xor_sum, c.count) for c in segment.downstream.cells],
            segment.upstream.packets,
            segment.downstream.packets,
            segment.upstream._keys,
            segment.downstream._keys,
            segment._lost_truth,
            segment._injected_truth,
        )

    flow = FiveTuple("10.0.0.1", "198.51.100.1", 40000, 443)
    attack_flow = FiveTuple("203.0.113.7", "198.51.100.1", 40001, 443)
    packets = [PacketId(flow, seq) for seq, _ in transits]
    lost = [dropped for _, dropped in transits]
    spoofed = [PacketId(attack_flow, seq) for seq in injected]

    scalar = LossRadarSegment(cells=64)
    for packet, dropped in zip(packets, lost):
        scalar.transit(packet, lost=dropped)
    for packet in spoofed:
        scalar.inject_upstream_only(packet)
    bulk = LossRadarSegment(cells=64)
    bulk.transit_bulk(packets, lost)
    bulk.inject_upstream_only_bulk(spoofed)
    assert state(bulk) == state(scalar)
    assert bulk.report() == scalar.report()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(finite_times, max_size=25), min_size=1, max_size=5))
def test_oscillation_stats_close(rows):
    from repro.core.metrics import coefficient_of_variation

    stats = kernels.pcc_oscillation_stats(rows)
    assert len(stats) == len(rows)
    for row, got in zip(rows, stats):
        if not row:
            assert got == {"mean": 0.0, "cv": 0.0, "amplitude": 0.0}
            continue
        mean = sum(row) / len(row)
        assert got == {
            "mean": mean,
            "cv": coefficient_of_variation(row) if len(row) >= 2 else 0.0,
            "amplitude": (max(row) - min(row)) / mean if mean else 0.0,
        }


soa_columns = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(
        st.tuples(*[finite_times] * width), max_size=30
    ).map(lambda rows: [[row[c] for row in rows] for c in range(width)])
)


@settings(max_examples=60, deadline=None)
@given(columns=soa_columns)
def test_soa_round_trip_exact(columns):
    import struct

    payload = kernels.soa_pack_f64(columns)
    n = len(columns[0])
    # Column-major little-endian doubles, exactly struct's layout.
    assert payload == b"".join(struct.pack(f"<{n}d", *col) for col in columns)
    assert kernels.soa_unpack_f64(payload, len(columns)) == columns


@settings(max_examples=60, deadline=None)
@given(columns=soa_columns)
def test_soa_sort_pack_exact(columns):
    rows = sorted(zip(*columns))
    expected = kernels.soa_pack_f64([[row[c] for row in rows] for c in range(len(columns))])
    assert kernels.soa_sort_pack_f64(columns) == expected
    # Any arrival order of the same rows packs to the same bytes.
    reversed_columns = [list(reversed(col)) for col in columns]
    assert kernels.soa_sort_pack_f64(reversed_columns) == expected
