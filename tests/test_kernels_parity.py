"""Property-based exactness of the Monte-Carlo reductions and the
struct-of-arrays kernels against their definitions.

Fig. 2's occupancy counts and crossing times against the sorted flip
times, PCC's oscillation statistics against their formulas, the bloom
filter's bits and answers against its double-hash indices, and the
``soa_*`` packing against ``struct``'s layout.  Hypothesis drives the
input space so shape corner cases — empty rows, duplicate flip times,
ragged orders — are covered without hand-enumeration.
"""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.blink.analysis import captured_counts, crossing_time
from repro.pcc.simulator import oscillation_stats

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
    assert [captured_counts(flips, times) for flips in rows] == expected


@settings(max_examples=60, deadline=None)
@given(rows=flip_rows, threshold=st.integers(min_value=1, max_value=48))
def test_crossing_times_exact(rows, threshold):
    expected = [
        next((t for i, t in enumerate(flips, 1) if i == threshold), None)
        for flips in rows
    ]
    assert [crossing_time(flips, threshold) for flips in rows] == expected


@settings(max_examples=40, deadline=None)
@given(items=keys, probes=keys, capacity=st.integers(min_value=1, max_value=500))
def test_bloom_membership_exact(items, probes, capacity):
    from repro.sketches.bloom import BloomFilter, _hash_indices

    bloom = BloomFilter.for_capacity(capacity, 0.01)
    bloom.add_all(items)
    set_bits = {
        index for item in items for index in _hash_indices(item, bloom.hashes, bloom.bits)
    }
    expected = bytearray(len(bloom._array))
    for index in set_bits:
        expected[index >> 3] |= 1 << (index & 7)
    assert bytes(bloom._array) == bytes(expected)
    assert bloom.inserted == len(items)
    for key in items + probes:
        indices = _hash_indices(key, bloom.hashes, bloom.bits)
        assert (key in bloom) == all(index in set_bits for index in indices)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(finite_times, max_size=25), min_size=1, max_size=5))
def test_oscillation_stats_close(rows):
    from repro.core.metrics import coefficient_of_variation

    for row in rows:
        got = oscillation_stats(row)
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
