"""Tests for trace records and queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.flow import FiveTuple
from repro.netsim.trace import StreamingTraceAggregator, Trace, TraceRecord


def _record(t, src="10.0.0.1", sport=1000, retrans=False, fin=False, bad=False):
    return TraceRecord(
        time=t,
        flow=FiveTuple(src, "198.51.100.1", sport, 443),
        size=1500,
        is_retransmission=retrans,
        is_fin_or_rst=fin,
        malicious_ground_truth=bad,
    )


class TestTraceOrdering:
    def test_rejects_time_regression(self):
        trace = Trace()
        trace.append(_record(1.0))
        with pytest.raises(ValueError):
            trace.append(_record(0.5))

    def test_merge_sorts(self):
        t1, t2 = Trace("a"), Trace("b")
        t1.append(_record(0.0))
        t1.append(_record(2.0))
        t2.append(_record(1.0))
        merged = Trace.merge([t1, t2])
        assert [r.time for r in merged] == [0.0, 1.0, 2.0]


class TestQueries:
    def test_flow_grouping(self):
        trace = Trace()
        trace.append(_record(0.0, sport=1))
        trace.append(_record(1.0, sport=2))
        trace.append(_record(2.0, sport=1))
        flows = trace.flows()
        assert trace.flow_count() == 2
        assert len(flows[FiveTuple("10.0.0.1", "198.51.100.1", 1, 443)]) == 2

    def test_slice_half_open(self):
        trace = Trace()
        for t in range(5):
            trace.append(_record(float(t)))
        sliced = trace.slice(1.0, 3.0)
        assert [r.time for r in sliced] == [1.0, 2.0]

    def test_activity_spans(self):
        trace = Trace()
        trace.append(_record(0.0, sport=7))
        trace.append(_record(5.0, sport=7))
        spans = trace.flow_activity_spans()
        assert spans[FiveTuple("10.0.0.1", "198.51.100.1", 7, 443)] == (0.0, 5.0)

    def test_inter_arrival_gaps(self):
        trace = Trace()
        for t in (0.0, 0.5, 1.5):
            trace.append(_record(t, sport=9))
        gaps = trace.inter_arrival_gaps(FiveTuple("10.0.0.1", "198.51.100.1", 9, 443))
        assert gaps == [0.5, 1.0]

    def test_malicious_fraction(self):
        trace = Trace()
        trace.append(_record(0.0, bad=True))
        trace.append(_record(1.0))
        assert trace.malicious_fraction() == 0.5

    def test_duration_and_bounds(self):
        trace = Trace()
        assert trace.duration == 0.0
        trace.append(_record(1.0))
        trace.append(_record(4.0))
        assert trace.start_time == 1.0
        assert trace.end_time == 4.0
        assert trace.duration == 3.0


def _observe_records(agg, records):
    for r in records:
        agg.observe(
            r.time,
            r.flow,
            r.size,
            r.observation_point,
            r.is_retransmission,
            r.is_fin_or_rst,
            r.malicious_ground_truth,
        )
    return agg


class TestStreamingAggregator:
    """StreamingTraceAggregator mirrors Trace's aggregates in O(1) memory."""

    def _records(self, n=200):
        records = []
        for i in range(n):
            records.append(
                _record(
                    float(i) * 0.1,
                    sport=1000 + (i % 7),
                    retrans=i % 5 == 0,
                    fin=i % 50 == 49,
                    bad=i % 4 == 0,
                )
            )
        return records

    def test_matches_trace_aggregates(self):
        from repro.netsim.trace import StreamingTraceAggregator

        records = self._records()
        trace = Trace("t")
        trace.extend(records)
        agg = _observe_records(StreamingTraceAggregator("t"), records)
        assert agg.packets == len(trace)
        assert agg.duration == trace.duration
        assert agg.malicious_fraction() == trace.malicious_fraction()
        assert agg.flow_count() == trace.flow_count()
        assert agg.bytes == sum(r.size for r in trace)
        assert agg.retransmissions == sum(1 for r in trace if r.is_retransmission)
        assert agg.fin_rst == sum(1 for r in trace if r.is_fin_or_rst)

    def test_ring_is_bounded_and_holds_the_tail(self):
        from repro.netsim.trace import StreamingTraceAggregator

        records = self._records(300)
        agg = _observe_records(StreamingTraceAggregator(ring_capacity=16), records)
        recent = agg.recent()
        assert len(recent) == 16
        assert recent == records[-16:]
        assert agg.ring_memory_bytes() > 0
        assert agg.summary()["ring"] == {"capacity": 16, "held": 16, "dropped": 284}

    def test_zero_capacity_disables_retention(self):
        from repro.netsim.trace import StreamingTraceAggregator

        agg = _observe_records(StreamingTraceAggregator(ring_capacity=0), self._records(50))
        assert agg.recent() == []
        assert agg.packets == 50

    def test_sink_sees_every_record_in_order(self):
        from repro.netsim.trace import StreamingTraceAggregator

        seen = []
        records = self._records(80)
        _observe_records(StreamingTraceAggregator(ring_capacity=0, sink=seen.append), records)
        assert seen == records

    def test_rejects_time_regression(self):
        from repro.netsim.trace import StreamingTraceAggregator

        agg = StreamingTraceAggregator()
        agg.observe(1.0, _record(1.0).flow, 100)
        with pytest.raises(ValueError):
            agg.observe(0.5, _record(1.0).flow, 100)
        assert agg.packets == 1 and agg.last_time == 1.0


# Rows of (time step, flow, size, retransmission, fin, malicious); the
# zero step makes equal times common.
_rows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([40, 1500]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    ),
    max_size=60,
)


def _columns(rows):
    times, flows, sizes, retrans, fins, malicious = [], [], [], [], [], []
    now = 0.0
    for step, flow, size, retransmission, fin, bad in rows:
        now += step
        times.append(now)
        flows.append(FiveTuple("10.0.0.1", "198.51.100.1", 1000 + flow, 443))
        sizes.append(size)
        retrans.append(retransmission)
        fins.append(fin)
        malicious.append(bad)
    return [times, flows, sizes, retrans, fins, malicious]


def _chunks(columns, cuts):
    """Split parallel columns at the sorted ``cuts`` (empty chunks kept)."""
    bounds = [0] + sorted(min(cut, len(columns[0])) for cut in cuts) + [len(columns[0])]
    for lo, hi in zip(bounds, bounds[1:]):
        yield [column[lo:hi] for column in columns]


def _state(agg):
    """Everything but the per-flow stats, which observe_totals leaves alone."""
    summary = agg.summary()
    summary.pop("flows")
    return summary, list(agg.points.items()), agg.recent()


def _observe_rows(agg, columns, point):
    for time, flow, size, retrans, fin, bad in zip(*columns):
        agg.observe(time, flow, size, point, retrans, fin, bad)


def _observe_totals(agg, chunk, point):
    """One observe_totals call for the rows of ``chunk``, handing it only
    the records its ring keeps."""
    times, flows, sizes, retrans, fins, malicious = chunk
    if not times:
        return
    tail = [
        TraceRecord(*row[:3], point, *row[3:])
        for row in list(zip(*chunk))[-agg.ring_capacity:] if agg.ring_capacity
    ]
    agg.observe_totals(
        len(times), sum(sizes), sum(retrans), sum(fins), sum(malicious),
        times[0], times[-1], tail, point,
    )


class TestObserveBatch:
    """observe_totals over any chunking, given each chunk's totals and
    only the records the ring keeps, is per-row observe, minus the
    per-flow stats (observe_flow's job, checked against per-row observe
    in tests/test_blink_packet_level.py)."""

    @given(
        rows=_rows,
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
        capacity=st.sampled_from([0, 1, 7, 1024]),
        point=st.sampled_from(["", "ingress"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunked_equals_per_row(self, rows, cuts, capacity, point):
        columns = _columns(rows)
        per_row = StreamingTraceAggregator("s", ring_capacity=capacity)
        _observe_rows(per_row, columns, point)
        batched = StreamingTraceAggregator("s", ring_capacity=capacity)
        for chunk in _chunks(columns, cuts):
            _observe_totals(batched, chunk, point)
        assert _state(batched) == _state(per_row)
        assert batched.flows == {}

    @given(
        rows=_rows.filter(lambda rows: len(rows) >= 2),
        data=st.data(),
        capacity=st.sampled_from([0, 1, 7, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_time_raises_the_same_error(self, rows, data, capacity):
        """A chunk that starts before the stream's last time raises the
        error per-row observe raises at that row, with the rows before
        it accounted and none of the chunk's."""
        columns = _columns(rows)
        bad = data.draw(st.integers(min_value=1, max_value=len(rows) - 1))
        drop = data.draw(st.sampled_from([0.5, 1e-9, 10.0]))
        columns[0][bad:] = [time - columns[0][bad] + columns[0][bad - 1] - drop
                            for time in columns[0][bad:]]
        per_row = StreamingTraceAggregator("s", ring_capacity=capacity)
        with pytest.raises(ValueError) as expected:
            _observe_rows(per_row, columns, "p")
        batched = StreamingTraceAggregator("s", ring_capacity=capacity)
        with pytest.raises(ValueError) as raised:
            for chunk in _chunks(columns, [bad]):
                _observe_totals(batched, chunk, "p")
        assert str(raised.value) == str(expected.value)
        assert _state(batched) == _state(per_row)

