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


class TestQueries:
    def test_activity_spans(self):
        trace = Trace()
        trace.append(_record(0.0, sport=7))
        trace.append(_record(5.0, sport=7))
        spans = trace.flow_activity_spans()
        assert spans[FiveTuple("10.0.0.1", "198.51.100.1", 7, 443)] == (0.0, 5.0)

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
        assert agg.malicious_fraction() == (
            sum(1 for r in trace if r.malicious_ground_truth) / len(trace)
        )
        assert agg.flow_count() == len({r.flow for r in trace})
        assert agg.bytes == sum(r.size for r in trace)
        assert agg.retransmissions == sum(1 for r in trace if r.is_retransmission)
        assert agg.fin_rst == sum(1 for r in trace if r.is_fin_or_rst)

    def test_sink_sees_every_record_in_order(self):
        from repro.netsim.trace import StreamingTraceAggregator

        seen = []
        records = self._records(80)
        _observe_records(StreamingTraceAggregator(sink=seen.append), records)
        assert seen == records

    def test_rejects_time_regression(self):
        from repro.netsim.trace import StreamingTraceAggregator

        agg = StreamingTraceAggregator()
        agg.observe(1.0, _record(1.0).flow, 100)
        with pytest.raises(ValueError):
            agg.observe(0.5, _record(1.0).flow, 100)
        assert agg.packets == 1 and agg.last_time == 1.0


# Flows of (5-tuple, start, gaps, retransmission flags, FIN gap or None,
# malicious); repeated 5-tuples and zero gaps make shared keys and equal
# times common.
_flows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0.0, 0.5, 1.0, 3.5]),
        st.lists(st.sampled_from([0.0, 0.25, 1.0]), max_size=6),
        st.lists(st.booleans(), min_size=6, max_size=6),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5])),
        st.booleans(),
    ),
    max_size=10,
)


def _flow_rows(flows):
    """Each flow as ``(flow, times, retransmissions, fin_time, malicious)``."""
    rows = []
    for key, start, gaps, retrans, fin_gap, bad in flows:
        times = []
        now = start
        for gap in gaps:
            times.append(now)
            now += gap
        fin = None if fin_gap is None else (times[-1] if times else start) + fin_gap
        flow = FiveTuple("10.0.0.1", "198.51.100.1", 1000 + key, 443)
        rows.append((flow, times, retrans[:len(times)], fin, bad))
    return rows


class TestObserveFlow:
    """observe_flow once per flow, in any flow order, is per-row observe
    over the flows' rows in merge order."""

    @given(flows=_flows, order=st.randoms(use_true_random=False),
           point=st.sampled_from(["", "ingress"]))
    @settings(max_examples=80, deadline=None)
    def test_shuffled_flows_equal_per_row(self, flows, order, point):
        rows = _flow_rows(flows)
        merged = []
        for rank, (flow, times, flags, fin_time, bad) in enumerate(rows):
            for index, time in enumerate(times):
                merged.append((time, rank, index, flow, 1500, flags[index], False, bad))
            if fin_time is not None:
                merged.append((fin_time, rank, len(times), flow, 40, False, True, bad))
        merged.sort()  # (time, rank, index) is unique
        per_row = StreamingTraceAggregator("s")
        for time, _rank, _index, flow, size, retrans, fin, bad in merged:
            per_row.observe(time, flow, size, point, retrans, fin, bad)
        order.shuffle(rows)
        per_flow = StreamingTraceAggregator("s")
        for flow, times, flags, fin_time, bad in rows:
            per_flow.observe_flow(flow, times, flags, 1500, fin_time, 40, bad, point)
        assert per_flow.summary() == per_row.summary()
        assert per_flow.points == per_row.points
        assert per_flow.flows == per_row.flows
