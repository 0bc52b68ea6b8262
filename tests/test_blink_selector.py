"""Tests for Blink's flow selector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blink.selector import FlowSelector
from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple


def _flow(i):
    return FiveTuple(f"10.0.{i // 250}.{i % 250 + 1}", "198.51.100.1", 1000 + i, 443)


def _flow_for_cell(selector, cell, start=0):
    """Find a flow hashing to the given cell."""
    i = start
    while True:
        flow = _flow(i)
        if flow.cell_index(len(selector.cells), selector.hash_seed) == cell:
            return flow, i
        i += 1


class TestSampling:
    def test_first_flow_installs(self):
        selector = FlowSelector(cells=8)
        index = selector.observe(_flow(1), now=0.0)
        assert index is not None
        assert selector.occupied_count() == 1
        assert selector.stats.installs == 1

    def test_collision_ignored_while_active(self):
        selector = FlowSelector(cells=1)
        selector.observe(_flow(1), now=0.0)
        assert selector.observe(_flow(2), now=1.0) is None
        assert selector.stats.collisions_ignored == 1
        assert selector.monitored_flows()[0] == _flow(1)

    def test_eviction_after_inactivity(self):
        selector = FlowSelector(cells=1, eviction_timeout=2.0)
        selector.observe(_flow(1), now=0.0)
        index = selector.observe(_flow(2), now=2.5)
        assert index == 0
        assert selector.monitored_flows()[0] == _flow(2)
        assert selector.stats.evictions_inactive == 1

    def test_fin_frees_cell(self):
        selector = FlowSelector(cells=1)
        selector.observe(_flow(1), now=0.0)
        selector.observe(_flow(1), now=0.5, is_fin_or_rst=True)
        assert selector.occupied_count() == 0
        assert selector.stats.evictions_fin == 1

    def test_own_packets_refresh_activity(self):
        selector = FlowSelector(cells=1, eviction_timeout=2.0)
        selector.observe(_flow(1), now=0.0)
        selector.observe(_flow(1), now=1.9)
        # Another flow at 3.0: only 1.1s since last activity -> no evict.
        assert selector.observe(_flow(2), now=3.0) is None

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            FlowSelector(cells=0)
        with pytest.raises(ConfigurationError):
            FlowSelector(eviction_timeout=0)


class TestReset:
    def test_reset_clears_all_cells(self):
        selector = FlowSelector(cells=8, reset_interval=10.0)
        for i in range(5):
            selector.observe(_flow(i), now=0.0)
        selector.maybe_reset(now=10.0)
        assert selector.occupied_count() == 0
        assert selector.stats.resets == 1

    def test_reset_reseeds_hash(self):
        selector = FlowSelector(cells=8, reset_interval=10.0, reseed_on_reset=True)
        seed_before = selector.hash_seed
        selector.maybe_reset(now=10.0)
        assert selector.hash_seed == seed_before + 1

    def test_no_reset_before_interval(self):
        selector = FlowSelector(cells=8, reset_interval=10.0)
        assert not selector.maybe_reset(now=9.9)

    def test_multiple_intervals_single_reset_event(self):
        selector = FlowSelector(cells=8, reset_interval=10.0)
        selector.maybe_reset(now=35.0)
        assert selector.stats.resets == 1
        # The reset boundary advanced past all elapsed intervals.
        assert not selector.maybe_reset(now=39.0)
        assert selector.maybe_reset(now=40.0)


class TestRetransmissionTracking:
    def test_explicit_flag(self):
        selector = FlowSelector(cells=4)
        selector.observe(_flow(1), now=0.0)
        selector.observe(_flow(1), now=0.5, is_retransmission=True)
        assert selector.retransmitting_count(now=1.0, window=1.0) == 1

    def test_duplicate_seq_detection(self):
        selector = FlowSelector(cells=4)
        selector.observe(_flow(1), now=0.0, seq=100)
        selector.observe(_flow(1), now=0.3, seq=100)  # duplicate
        assert selector.retransmitting_count(now=0.5, window=1.0) == 1

    def test_advancing_seq_not_retransmission(self):
        selector = FlowSelector(cells=4)
        selector.observe(_flow(1), now=0.0, seq=100)
        selector.observe(_flow(1), now=0.3, seq=1560)
        assert selector.retransmitting_count(now=0.5, window=1.0) == 0

    def test_window_expiry(self):
        selector = FlowSelector(cells=4)
        selector.observe(_flow(1), now=0.0)
        selector.observe(_flow(1), now=0.5, is_retransmission=True)
        selector.observe(_flow(1), now=5.0)
        assert selector.retransmitting_count(now=5.0, window=1.0) == 0

    def test_gap_recording_skips_first_packet(self):
        selector = FlowSelector(cells=4)
        selector.observe(_flow(1), now=10.0, is_retransmission=True)
        assert selector.stats.retransmission_gaps == []
        selector.observe(_flow(1), now=10.5, is_retransmission=True)
        assert selector.stats.retransmission_gaps == [pytest.approx(0.5)]


class TestGroundTruth:
    def test_malicious_count(self):
        selector = FlowSelector(cells=16)
        selector.observe(_flow(1), now=0.0, malicious_ground_truth=True)
        selector.observe(_flow(2), now=0.0, malicious_ground_truth=False)
        assert selector.malicious_count() == 1

    def test_occupancy_durations_recorded_on_eviction(self):
        selector = FlowSelector(cells=1, eviction_timeout=2.0)
        selector.observe(_flow(1), now=0.0)
        selector.observe(_flow(1), now=3.0)
        selector.observe(_flow(2), now=6.0)  # evicts flow 1 (idle since 3.0)
        assert selector.stats.legit_occupancy_durations == [pytest.approx(5.0)]
        assert selector.stats.mean_legit_occupancy() == pytest.approx(5.0)

    def test_mean_occupancy_requires_data(self):
        with pytest.raises(ValueError):
            FlowSelector().stats.mean_legit_occupancy()


# One selector operation: a packet (flow, time step, retransmission,
# FIN, seq), an explicit sample reset, or a query with a wider window
# or an earlier time than the bound has pruned for.
_PACKET = st.tuples(
    st.just("packet"),
    st.integers(0, 11),
    st.floats(0.0, 1.5),
    st.booleans(),
    st.sampled_from([False, False, False, True]),
    st.one_of(st.none(), st.integers(0, 3)),
)
_RESET = st.tuples(st.just("reset"), st.floats(0.0, 6.0))
_QUERY = st.tuples(st.just("query"), st.floats(0.0, 2.0), st.floats(1.0, 3.0))


def _scan_count(selector, now, window):
    """retransmitting_count() by definition: a scan of every cell."""
    return sum(
        1
        for cell in selector.cells
        if cell.flow is not None
        and cell.last_retransmission is not None
        and now - cell.last_activity < selector.eviction_timeout
        and now - cell.last_retransmission <= window
    )


class TestRetransmittingBound:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(st.one_of(_PACKET, _RESET, _QUERY), max_size=80),
        window=st.floats(0.05, 3.0),
        cells=st.integers(1, 8),
    )
    def test_bound_never_undercounts(self, ops, window, cells):
        selector = FlowSelector(cells=cells, eviction_timeout=1.0, reset_interval=5.0)
        now = 0.0
        for op in ops:
            if op[0] == "packet":
                _, flow, step, retrans, fin, seq = op
                now += step
                selector.observe(
                    _flow(flow), now, is_retransmission=retrans, is_fin_or_rst=fin, seq=seq
                )
            elif op[0] == "reset":
                now += op[1]
                selector.maybe_reset(now)
            else:
                _, back, wider = op
                earlier, wide = now - back, window * wider
                exact = selector.retransmitting_count(earlier, wide)
                assert exact == _scan_count(selector, earlier, wide)
                assert selector.retransmitting_bound(earlier, wide) >= exact
            exact = selector.retransmitting_count(now, window)
            assert exact == _scan_count(selector, now, window)
            assert selector.retransmitting_bound(now, window) >= exact

    def test_bound_drops_once_retransmissions_leave_the_window(self):
        selector = FlowSelector(cells=8)
        for i in range(3):
            selector.observe(_flow(i), now=0.0, is_retransmission=True)
        assert selector.retransmitting_bound(0.5, 1.0) == selector.retransmitting_count(0.5, 1.0)
        assert selector.retransmitting_bound(0.5, 1.0) > 0
        assert selector.retransmitting_bound(1.5, 1.0) == 0

    def test_log_stays_bounded_without_queries(self):
        # Once a window is known, appends prune too: a stream of
        # retransmissions with no query in between (Blink's hold-down)
        # keeps only the entries inside the window.
        selector = FlowSelector(cells=8)
        selector.retransmitting_bound(0.0, 1.0)
        for step in range(1000):
            selector.observe(_flow(step % 8), now=step * 0.1, is_retransmission=True)
        assert len(selector._retx_log) <= 11
