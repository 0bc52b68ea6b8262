"""Tests for the Blink pipeline: inference, rerouting, replay modes."""

import functools
from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.blink.packet_level import flow_rows
from repro.blink.pipeline import BlinkPrefixMonitor, BlinkSwitch
from repro.core.errors import ConfigurationError
from repro.core.entities import Signal, SignalKind
from repro.core.supervisor import OperatingRange, SupervisedDriver, Supervisor, ThresholdModel
from repro.core.system import RecordingSystem
from repro.defenses.blink_defense import supervised_blink
from repro.flows.flow import FiveTuple
from repro.flows.generators import DurationDistribution, blink_attack_workload
from repro.netsim.packet import TcpFlags, tcp_packet
from repro.netsim.trace import TraceRecord
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

PREFIX = "198.51.100.0/24"


def _flow(i):
    return FiveTuple(f"10.0.{i // 250}.{i % 250 + 1}", "198.51.100.1", 1000 + i, 443)


def _signal(flow, time, retrans=False, fin=False, malicious=False, seq=None):
    return Signal(
        SignalKind.HEADER_FIELD,
        "tcp.packet",
        {
            "flow": flow,
            "retransmission": retrans,
            "fin": fin,
            "malicious": malicious,
            "seq": seq,
        },
        time=time,
    )


def _monitor(cells=8, **kwargs):
    defaults = dict(next_hops=["nh1", "nh2"], cells=cells)
    defaults.update(kwargs)
    return BlinkPrefixMonitor(PREFIX, **defaults)


class TestFailureInference:
    def test_majority_retransmission_triggers_reroute(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0))
        decisions = []
        for i in range(40):
            decisions += monitor.observe(_signal(_flow(i), time=0.5, retrans=True))
        assert len(decisions) == 1
        assert decisions[0].action == "reroute"
        assert decisions[0].value == "nh2"
        assert monitor.active_next_hop == "nh2"

    def test_below_threshold_no_reroute(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0))
        # Only a couple of flows retransmit.
        decisions = monitor.observe(_signal(_flow(0), time=0.5, retrans=True))
        assert decisions == []
        assert monitor.active_next_hop == "nh1"

    def test_holddown_suppresses_flapping(self):
        monitor = _monitor(cells=8, reroute_holddown=10.0)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0))
        first = []
        for i in range(40):
            first += monitor.observe(_signal(_flow(i), time=0.5, retrans=True))
        again = []
        for i in range(40):
            again += monitor.observe(_signal(_flow(i), time=1.0, retrans=True))
        assert len(first) == 1
        assert again == []  # within holddown

    def test_reroute_event_records_ground_truth(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0, malicious=True))
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.5, retrans=True, malicious=True))
        assert len(monitor.reroutes) == 1
        event = monitor.reroutes[0]
        assert event.malicious_monitored_ground_truth > 0
        assert event.retransmitting_flows >= monitor.failure_threshold

    def test_backup_cycles_through_next_hops(self):
        monitor = _monitor(cells=8, reroute_holddown=0.0)
        assert monitor._choose_backup() == "nh2"
        monitor.active_next_hop = "nh2"
        assert monitor._choose_backup() == "nh1"

    def test_state_snapshot_fields(self):
        monitor = _monitor()
        monitor.observe(_signal(_flow(0), time=1.0))
        state = monitor.state()
        assert state.get("prefix") == PREFIX
        assert state.get("monitored") == 1
        assert state.get("active_next_hop") == "nh1"

    def test_reset_restores_initial_state(self):
        monitor = _monitor(cells=8)
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.0, retrans=False))
        for i in range(40):
            monitor.observe(_signal(_flow(i), time=0.5, retrans=True))
        monitor.reset()
        assert monitor.reroutes == []
        assert monitor.active_next_hop == "nh1"
        assert monitor.selector.occupied_count() == 0


class TestBlinkSwitch:
    def test_monitor_lookup_by_prefix(self):
        switch = BlinkSwitch({PREFIX: ["a", "b"]})
        assert switch.monitor_for("198.51.100.77") is not None
        assert switch.monitor_for("203.0.113.1") is None

    def test_replay_trace_produces_series(self):
        from repro.flows.generators import blink_attack_workload, DurationDistribution

        _, trace, _ = blink_attack_workload(
            horizon=40, legitimate_flows=60, malicious_flows=12,
            duration_model=DurationDistribution(median=3.0),
        )
        switch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        series = switch.replay_trace(trace, sample_interval=2.0)[PREFIX]
        assert len(series) > 0
        # Persistent attack flows accumulate monotonically (no reset
        # inside this short horizon): last sample should be the max.
        assert series.values[-1] == max(series.values)

    def test_network_mode_infers_from_duplicate_seq(self):
        switch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=4)
        monitor = switch.monitor_for("198.51.100.1")
        for i in range(20):
            packet = tcp_packet("10.0.0.%d" % (i + 1), "198.51.100.1", 1000 + i, 443, seq=0)
            switch.process(packet, now=0.0, node="r0")
        # Same seq again: duplicates -> retransmissions.
        decisions_before = len(switch.decisions)
        for i in range(20):
            packet = tcp_packet("10.0.0.%d" % (i + 1), "198.51.100.1", 1000 + i, 443, seq=0)
            switch.process(packet, now=0.5, node="r0")
        assert len(switch.decisions) > decisions_before
        assert monitor.active_next_hop == "b"

    def test_process_returns_active_next_hop(self):
        switch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=4)
        packet = tcp_packet("10.0.0.1", "198.51.100.1", 1000, 443, seq=0)
        assert switch.process(packet, now=0.0, node="r0") == "a"

    def test_non_tcp_ignored(self):
        from repro.netsim.packet import Packet, Protocol

        switch = BlinkSwitch({PREFIX: ["a", "b"]})
        packet = Packet(src="x", dst="198.51.100.1", protocol=Protocol.ICMP)
        assert switch.process(packet, now=0.0, node="r0") is None

    def test_requires_at_least_one_prefix(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BlinkSwitch({})


class TestStreamingReplay:
    """replay_trace over generators and the push-mode session agree
    with the retained-trace path, record for record."""

    def _workload(self):
        from repro.flows.generators import DurationDistribution, blink_attack_workload

        _, trace, _ = blink_attack_workload(
            horizon=40,
            legitimate_flows=60,
            malicious_flows=12,
            duration_model=DurationDistribution(median=3.0),
            seed=4,
        )
        return trace

    def test_generator_input_matches_trace_input(self):
        trace = self._workload()
        retained = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        streamed = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        series_a = retained.replay_trace(trace, sample_interval=2.0)[PREFIX]
        series_b = streamed.replay_trace(
            (record for record in trace), sample_interval=2.0
        )[PREFIX]
        assert series_a.times == series_b.times
        assert series_a.values == series_b.values
        assert len(retained.decisions) == len(streamed.decisions)

    def test_session_feed_matches_replay_trace(self):
        trace = self._workload()
        batch = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        push = BlinkSwitch({PREFIX: ["a", "b"]}, cells=16)
        series_a = batch.replay_trace(trace, sample_interval=2.0)[PREFIX]
        session = push.replay_session(sample_interval=2.0)
        for record in trace:
            session.feed(record)
        series_b = session.finish()[PREFIX]
        assert series_a.times == series_b.times
        assert series_a.values == series_b.values
        assert [d.time for d in batch.decisions] == [d.time for d in push.decisions]


class TestSupervisedParity:
    """A pass-through ``supervise=`` wrapper sees Signals; the bare path
    calls ``ingest`` directly.  Both must decide identically."""

    @pytest.fixture(scope="class")
    def trace(self):
        # E2 shape, scaled down: the attack captures half of 16 cells
        # and Blink reroutes twice inside 20 s.
        return blink_attack_workload(
            PREFIX,
            horizon=20.0,
            legitimate_flows=200,
            malicious_flows=100,
            duration_model=DurationDistribution(median=3.0),
            seed=0,
        )[1]

    @staticmethod
    def _switches():
        bare = BlinkSwitch({PREFIX: ["nh1", "nh2"]}, cells=16)
        wrapped = BlinkSwitch({PREFIX: ["nh1", "nh2"]}, cells=16, supervise=RecordingSystem)
        return bare, wrapped

    def test_replay_matches(self, trace):
        bare, wrapped = self._switches()
        bare_series = bare.replay_trace(trace)[PREFIX]
        wrapped_series = wrapped.replay_trace(trace)[PREFIX]
        assert len(wrapped.drivers[PREFIX].signals) == len(trace)
        assert len(bare.reroutes) == 2
        assert bare.decisions == wrapped.decisions
        assert bare.reroutes == wrapped.reroutes
        assert bare_series.values == wrapped_series.values

    def test_dataplane_mode_matches(self, trace):
        bare, wrapped = self._switches()
        seqs = {}
        hops = ([], [])
        for record in trace:
            flow = record.flow
            seq = seqs.get(flow, 0)
            if not record.is_retransmission:
                seqs[flow] = seq + 1460
            for switch, out in zip((bare, wrapped), hops):
                packet = tcp_packet(
                    flow.src,
                    flow.dst,
                    flow.src_port,
                    flow.dst_port,
                    seq=seq,
                    flags=TcpFlags.FIN if record.is_fin_or_rst else TcpFlags.ACK,
                    malicious=record.malicious_ground_truth,
                )
                out.append(switch.process(packet, record.time, "s1"))
        assert len(wrapped.drivers[PREFIX].signals) == len(trace)
        assert bare.reroutes
        assert hops[0] == hops[1]
        assert bare.decisions == wrapped.decisions
        assert bare.reroutes == wrapped.reroutes


@functools.lru_cache(maxsize=None)
def _small_attack_trace():
    # Small enough to replay in a unit test; the attack still makes
    # Blink reroute twice on 16 cells.
    return blink_attack_workload(
        PREFIX,
        horizon=20.0,
        legitimate_flows=60,
        malicious_flows=30,
        duration_model=DurationDistribution(median=3.0),
        seed=0,
    )[1]


def _flows_by_cell(cells):
    """Two flows for each cell index at hash seed 0."""
    groups = {cell: [] for cell in range(cells)}
    i = 0
    while any(len(group) < 2 for group in groups.values()):
        flow = _flow(i)
        group = groups[flow.cell_index(cells, 0)]
        if len(group) < 2:
            group.append(flow)
        i += 1
    return groups


def _row_marks(rows, next_hops, sample_interval, **monitor_kwargs):
    """Per row of a per-record replay: (ignored, index cached before it,
    reroutes it released, resets it caused)."""
    switch = BlinkSwitch({PREFIX: next_hops}, **monitor_kwargs)
    session = switch.replay_session(sample_interval=sample_interval)
    monitor = switch.monitors[PREFIX]
    marks = []
    for time, flow, retrans, fin in rows:
        stats = monitor.selector.stats
        before = (stats.collisions_ignored, len(monitor.reroutes), stats.resets)
        cached = flow in monitor.selector._index_cache
        session.feed(TraceRecord(time, flow, 1500, "", retrans, fin, False))
        marks.append((
            stats.collisions_ignored > before[0],
            cached,
            monitor.reroutes[before[1]:],
            stats.resets - before[2],
        ))
    return marks


def _holddown_workload():
    """A reroute released by an ignored row once the holddown expires."""
    a, c = _flows_by_cell(2)[0]
    rows = [
        (0.0, a, True, False),   # installs a, retransmits: reroute 1
        (0.3, c, False, False),  # ignored inside the holddown
        (0.6, a, True, False),   # a retransmits again, still held down
        (0.8, c, False, False),  # ignored inside the holddown
        (1.2, c, False, False),  # ignored, holddown over: reroute 2
        (1.5, c, False, False),
    ]
    return rows, ["nh1", "nh2"], 5.0, dict(cells=2, reroute_holddown=1.0)


def _probe_workload():
    """A next-hop probe that an ignored row finishes."""
    a, c = _flows_by_cell(2)[0]
    rows = [
        (0.0, a, True, False),   # installs a, retransmits: probe starts
        (0.4, c, False, False),  # ignored mid-probe
        (1.1, c, False, False),  # ignored, probe over: probed reroute
        (1.3, a, False, True),
        (1.4, c, False, False),
    ]
    kwargs = dict(cells=2, probe_backups=True, probe_duration=1.0)
    return rows, ["nh1", "nh2", "nh3"], 5.0, kwargs


def _reset_workload():
    """A reset (with reseeding) due on a row that looks ignored, after
    a flow's first row collided before its index was cached."""
    a, c = _flows_by_cell(2)[0]
    rows = [
        (0.0, a, False, False),
        (1.0, a, False, False),
        (2.5, a, True, False),
        (2.8, c, False, False),  # c's first row: uncached, ignored
        (3.2, c, False, False),  # reset due: clears, reseeds, installs c
        (3.4, a, True, False),
        (3.6, c, True, False),
        (3.7, a, False, False),
    ]
    return rows, ["nh1", "nh2"], 100.0, dict(cells=2, reset_interval=3.0)


FAST_PATH_WORKLOADS = {
    "holddown": _holddown_workload,
    "probe": _probe_workload,
    "reset": _reset_workload,
}


class TestFeedBatchFastPath:
    """The fast-path workloads: ignored rows that release a reroute,
    finish a probe and meet a reset.  TestFeedFlowsOracle solves each
    against per-record feed."""

    def test_workloads_hit_their_targets(self):
        rows, hops, interval, kwargs = _holddown_workload()
        marks = _row_marks(rows, hops, interval, **kwargs)
        ignored, _, released, _ = marks[4]
        assert ignored and len(released) == 1 and released[0].time == 1.2
        assert [mark[0] for mark in marks[1:5]] == [True, False, True, True]

        rows, hops, interval, kwargs = _probe_workload()
        ignored, _, released, _ = _row_marks(rows, hops, interval, **kwargs)[2]
        assert ignored and len(released) == 1
        assert released[0].probe_counts is not None

        rows, hops, interval, kwargs = _reset_workload()
        marks = _row_marks(rows, hops, interval, **kwargs)
        ignored, cached, _, _ = marks[3]
        assert ignored and not cached
        _, _, _, resets = marks[4]
        assert resets == 1
        # Without the reset, c would collide with a again.
        assert marks[4][1] and not marks[4][0]


def _oracle_flow(which):
    """A new 5-tuple object: 0-5 distinct flows to the prefix, 6-8 equal to
    0-2 (one flow to the selector), 9 outside the prefix."""
    if which == 9:
        return FiveTuple("10.9.9.9", "203.0.113.5", 4000, 443)
    which %= 6
    return FiveTuple(f"10.1.{which}.{which + 1}", "198.51.100.7", 2000 + 13 * which, 443)


def _merged_records(flows):
    """The rows of ``flows`` in (time, rank, index) order, as records."""
    rows = []
    for rank, flow, times, flags, fin, mal in flows:
        rows += [(t, rank, i, flow, bool(flags[i]), False, mal) for i, t in enumerate(times)]
        if fin is not None:
            rows.append((fin, rank, len(times), flow, False, True, mal))
    rows.sort(key=lambda row: row[:3])
    return [TraceRecord(t, flow, 1500, "", retrans, fin, mal)
            for t, _rank, _index, flow, retrans, fin, mal in rows]


def _flows_outcome(
    flows, solve, next_hops, sample_interval, split=None, supervise=None, **monitor_kwargs
):
    """Everything a replay of ``flows`` leaves: per record through
    ``feed``, or through ``feed_flows``; with ``split``, the rows before
    it go through ``feed`` first either way.  A ``supervise`` wrapper's
    audit trail, suppressions and last signal time count too."""
    switch = BlinkSwitch({PREFIX: next_hops}, supervise=supervise, **monitor_kwargs)
    session = switch.replay_session(sample_interval=sample_interval)
    registry = obs_metrics.MetricRegistry()
    with obs.activate(obs.Tracer(), registry) as tracer:
        if split is not None:
            for record in _merged_records(flows):
                if record.time < split:
                    session.feed(record)
            flows = [
                (rank, flow, times[bisect_left(times, split):],
                 flags[bisect_left(times, split):],
                 fin if fin is not None and fin >= split else None, mal)
                for rank, flow, times, flags, fin, mal in flows
            ]
        if solve:
            session.feed_flows(flows)
        else:
            for record in _merged_records(flows):
                session.feed(record)
        series = session.finish()[PREFIX]
    monitor = switch.monitors[PREFIX]
    metrics = registry.snapshot()
    # The solve's own counters; the per-record path has none.
    for name in ("counter.blink.solve.cells", "counter.blink.solve.full_chain_rows"):
        metrics.pop(name, None)
    outcome = {
        "series": (series.times, series.values),
        "packets": session.packets,
        "decisions": list(switch.decisions),
        "reroutes": list(monitor.reroutes),
        "stats": monitor.selector.stats,
        "state": monitor.state(),
        "hash_seed": monitor.selector.hash_seed,
        "metrics": metrics,
        "events": [(event.kind, event.fields) for event in tracer.events],
    }
    driver = switch.drivers[PREFIX]
    if driver is not monitor:
        outcome["supervision"] = (
            list(driver.supervisor.events),
            list(driver.suppressed),
            driver.supervisor._allowed_times,
            driver._last_signal_time,
        )
    return outcome


def _rows_as_flows(rows):
    """Each row of a FAST_PATH_WORKLOADS workload as a one-row flow."""
    return [
        (rank, flow, [] if fin else [time], [] if fin else [retrans],
         time if fin else None, False)
        for rank, (time, flow, retrans, fin) in enumerate(rows)
    ]


#: Times on a 0.5 s grid, so gaps equal the 2 s eviction timeout, the
#: holddowns and the reset intervals exactly.
_GRID = st.integers(min_value=0, max_value=24).map(lambda k: k * 0.5)

#: Flow shapes for :func:`_shaped_flows`.
_SHAPE = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # 5-tuple
        _GRID,                                   # first time
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5]), max_size=6),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 2.0])),  # FIN gap
        st.booleans(),                           # malicious
        st.integers(min_value=0, max_value=3),   # retransmission pattern
    ),
    max_size=16,
)


def _shaped_flows(shape, order):
    """One flow per ``_SHAPE`` entry, ranked in the shuffled ``order``."""
    ranks = list(range(len(shape)))
    order.shuffle(ranks)
    flows = []
    for rank, (which, start, gaps, fin_gap, mal, pattern) in zip(ranks, shape):
        # No gaps: a FIN-only flow, or a silent one without a FIN.
        times = list(accumulate(gaps, initial=start))[1:]
        flags = [(i * pattern) % 3 == 1 for i in range(len(times))]
        fin = None if fin_gap is None else (times[-1] if times else start) + fin_gap
        flows.append((rank, _oracle_flow(which), times, flags, fin, mal))
    return flows


class TestFeedFlowsOracle:
    """feed_flows solves Blink per cell; everything it leaves must be
    what per-record feed over the merged rows leaves."""

    @pytest.mark.parametrize("name", sorted(FAST_PATH_WORKLOADS))
    def test_targeted_workloads(self, name):
        rows, hops, interval, kwargs = FAST_PATH_WORKLOADS[name]()
        flows = _rows_as_flows(rows)
        expected = _flows_outcome(flows, False, hops, interval, **kwargs)
        assert _flows_outcome(flows, True, hops, interval, **kwargs) == expected

    @given(
        shape=_SHAPE,
        order=st.randoms(use_true_random=False),
        cells=st.sampled_from([1, 2, 3, 5]),
        sample_interval=st.sampled_from([0.5, 1.0, 3.0]),
        holddown=st.sampled_from([0.0, 0.5, 2.0, 10.0]),
        reset_interval=st.sampled_from([2.5, 4.0, 510.0]),
        probe=st.booleans(),
        hash_seed=st.sampled_from([0, 5]),
        split=st.one_of(st.none(), _GRID),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_flows(
        self, shape, order, cells, sample_interval, holddown, reset_interval, probe,
        hash_seed, split,
    ):
        flows = _shaped_flows(shape, order)
        hops = ["nh1", "nh2", "nh3", "nh4"] if probe else ["nh1", "nh2"]
        kwargs = dict(
            cells=cells,
            reroute_holddown=holddown,
            reset_interval=reset_interval,
            probe_backups=probe,
            probe_duration=1.0,
            hash_seed=hash_seed,
            failure_threshold_fraction=0.5,
        )
        expected = _flows_outcome(flows, False, hops, sample_interval, split, **kwargs)
        stats = expected["stats"]
        event(f"reroutes={min(len(expected['reroutes']), 2)}")
        event(f"probed={any(r.probe_counts for r in expected['reroutes'])}")
        event(f"resets={min(stats.resets, 2)}")
        event(f"timeout evictions={stats.evictions_inactive > 0}")
        assert _flows_outcome(flows, True, hops, sample_interval, split, **kwargs) == expected

    def test_attack_workload(self):
        """The small attack trace's flows, ranked by spec index as
        emit_trace ties them: the per-record replay of these rows is
        that trace's, and reroutes on 16 cells."""
        specs = blink_attack_workload(
            PREFIX, horizon=20.0, legitimate_flows=60, malicious_flows=30,
            duration_model=DurationDistribution(median=3.0), seed=0,
        )[0]
        ranks = sorted(range(len(specs)), key=lambda i: (specs[i].start, i))
        flows = list(flow_rows([specs[i] for i in ranks], 2, ranks=ranks))
        assert _merged_records(flows) == [
            TraceRecord(r.time, r.flow, 1500, "", r.is_retransmission, r.is_fin_or_rst,
                        r.malicious_ground_truth)
            for r in _small_attack_trace()
        ]
        expected = _flows_outcome(flows, False, ["nh1", "nh2"], 0.5, cells=16)
        assert len(expected["reroutes"]) >= 1
        assert _flows_outcome(flows, True, ["nh1", "nh2"], 0.5, cells=16) == expected

    def test_needs_one_bare_prefix(self):
        flows = [(0, _flow(1), [0.0], [False], None, False)]
        for switch in (
            BlinkSwitch({PREFIX: ["nh1"]}, supervise=RecordingSystem),
            BlinkSwitch({PREFIX: ["nh1"], "203.0.113.0/24": ["nh1"]}),
        ):
            with pytest.raises(ConfigurationError, match="needs one prefix, bare or"):
                switch.replay_session().feed_flows(flows)


#: Decision-only supervisors over a monitor.  "rto" is the Section 5
#: defense with a tight reroute rate limit; "state" reads the monitor's
#: state() (monitored cells at the decision's time) for every verdict.
_SUPERVISORS = {
    "rto": lambda monitor: supervised_blink(
        monitor, min_plausible_gap=1.0, max_reroutes_per_window=2, window_seconds=5.0
    ),
    "state": lambda monitor: SupervisedDriver(
        monitor,
        Supervisor(
            ThresholdModel({"monitored": (0.0, 1.0)}),
            OperatingRange(max_decisions_per_window=1, window_seconds=3.0),
        ),
    ),
}


def _state_at_check_workload():
    """A reroute released by an ignored row once another cell's flow
    has timed out: the "state" supervisor sees one monitored flow at the
    ignored row's time, two at the last occupant row's."""
    groups = _flows_by_cell(2)
    a, c = groups[0]
    b = groups[1][0]
    rows = [
        (0.0, b, False, False),  # installs b in the other cell
        (0.5, a, True, False),   # installs a, retransmits: reroute 1 (vetoed)
        (1.5, a, True, False),   # a retransmits again, held down
        (2.0, c, False, False),  # ignored, holddown over, b timed out: reroute 2
    ]
    return rows, ["nh1", "nh2"], 5.0, dict(cells=2, reroute_holddown=1.5)


#: FAST_PATH_WORKLOADS plus one whose check-row verdict reads state().
_SUPERVISED_WORKLOADS = dict(FAST_PATH_WORKLOADS, state_at_check=_state_at_check_workload)


class TestSupervisedSolve:
    """feed_flows under a decision-only supervisor: every verdict,
    suppression and audit event must be what per-record feeding, one
    Signal per packet through the supervisor, leaves."""

    @pytest.mark.parametrize("supervisor", sorted(_SUPERVISORS))
    @pytest.mark.parametrize("name", sorted(_SUPERVISED_WORKLOADS))
    def test_targeted_workloads(self, name, supervisor):
        rows, hops, interval, kwargs = _SUPERVISED_WORKLOADS[name]()
        flows = _rows_as_flows(rows)
        supervise = _SUPERVISORS[supervisor]
        expected = _flows_outcome(flows, False, hops, interval, supervise=supervise, **kwargs)
        assert expected["reroutes"]
        if (name, supervisor) == ("state_at_check", "state"):
            kinds = [e.kind for e in expected["supervision"][0]]
            assert kinds == ["veto", "check"]
        got = _flows_outcome(flows, True, hops, interval, supervise=supervise, **kwargs)
        assert got == expected

    @given(
        shape=_SHAPE,
        order=st.randoms(use_true_random=False),
        cells=st.sampled_from([1, 2, 3]),
        holddown=st.sampled_from([0.0, 0.5, 2.0]),
        reset_interval=st.sampled_from([2.5, 510.0]),
        probe=st.booleans(),
        supervisor=st.sampled_from(sorted(_SUPERVISORS)),
        split=st.one_of(st.none(), _GRID),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_flows(
        self, shape, order, cells, holddown, reset_interval, probe, supervisor, split
    ):
        flows = _shaped_flows(shape, order)
        hops = ["nh1", "nh2", "nh3", "nh4"] if probe else ["nh1", "nh2"]
        kwargs = dict(
            cells=cells,
            reroute_holddown=holddown,
            reset_interval=reset_interval,
            probe_backups=probe,
            probe_duration=1.0,
            failure_threshold_fraction=0.5,
        )
        expected = _flows_outcome(
            flows, False, hops, 1.0, split, _SUPERVISORS[supervisor], **kwargs
        )
        events, suppressed, _allowed, _last = expected["supervision"]
        event(f"released={min(len(expected['decisions']), 2)}")
        event(f"suppressed={min(len(suppressed), 2)}")
        event(f"range={any(e.kind == 'range-violation' for e in events)}")
        got = _flows_outcome(flows, True, hops, 1.0, split, _SUPERVISORS[supervisor], **kwargs)
        assert got == expected

    @pytest.mark.parametrize("gap", [1.0, 1e-6])
    def test_attack_workload(self, gap):
        """The small attack trace's flows under supervised_blink: vetoed
        at the RTO floor, released (and then rate-limited) below it."""
        specs = blink_attack_workload(
            PREFIX, horizon=20.0, legitimate_flows=60, malicious_flows=30,
            duration_model=DurationDistribution(median=3.0), seed=0,
        )[0]
        ranks = sorted(range(len(specs)), key=lambda i: (specs[i].start, i))
        flows = list(flow_rows([specs[i] for i in ranks], 2, ranks=ranks))

        def supervise(monitor):
            return supervised_blink(
                monitor, min_plausible_gap=gap, max_reroutes_per_window=1
            )

        expected = _flows_outcome(flows, False, ["nh1", "nh2"], 0.5, supervise=supervise,
                                  cells=16, reroute_holddown=2.0)
        kinds = [e.kind for e in expected["supervision"][0]]
        if gap == 1.0:
            assert kinds and set(kinds) == {"veto"}
        else:
            assert kinds[0] == "check" and "range-violation" in kinds
        assert _flows_outcome(flows, True, ["nh1", "nh2"], 0.5, supervise=supervise,
                              cells=16, reroute_holddown=2.0) == expected

    @pytest.mark.parametrize(
        "shape",
        [
            dict(stale_after=5.0),
            dict(degrade_on_risk=0.5),
            dict(raise_on_veto=True),
            dict(synchronous=False),
            "degraded",
            "subclass",
        ],
        ids=str,
    )
    def test_other_supervisors_take_the_merge(self, shape):
        class Subclass(SupervisedDriver):
            """May change what observe() does, so it is not solved."""

        def supervise(monitor):
            supervisor = Supervisor(ThresholdModel())
            if shape == "subclass":
                return Subclass(monitor, supervisor)
            if shape == "degraded":
                supervisor.enter_degraded(0.0)
                return SupervisedDriver(monitor, supervisor)
            return SupervisedDriver(monitor, supervisor, **shape)

        switch = BlinkSwitch({PREFIX: ["nh1"]}, supervise=supervise)
        with pytest.raises(ConfigurationError, match="decision-only supervisor"):
            switch.replay_session().feed_flows([(0, _flow(1), [0.0], [False], None, False)])
