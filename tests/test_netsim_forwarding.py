"""Sharded forwarding engine: determinism grid, codecs, adaptive windows.

The tentpole contract: a partitioned forwarding :class:`Network` run
across forked shard workers must reproduce the monolithic reference's
``report_hash`` byte-for-byte — across shard counts, schedulers,
window policies and fault plans.  The grid here drives the in-process
coordinator path (identical windowing and admission order to the
forked path, minus the fork) so it stays cheap enough for tier-1; one
dedicated case pins forked-vs-in-process equality where ``fork``
exists.  Alongside the grid: the SoA flow/boundary codecs, the
endpoint re-homing stream, the adaptive-window controller, and the
explicit-assignment validation.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.flows.flow import FiveTuple
from repro.flows.generators import FlowSpec
from repro.netsim.forwarding import (
    BOUNDARY_COLUMNS,
    ShardedForwardingSim,
    _boundary_row,
    _pack_flow_chunk,
    _row_to_packet,
    _unpack_flow_chunk,
    forwarding_experiment,
    iter_forwarding_flows,
)
from repro.netsim.packet import IcmpType, icmp_time_exceeded, tcp_packet
from repro.netsim.sharded import AdaptiveWindow
from repro.netsim.topology import (
    cluster_assignment,
    clustered_random_topology,
    line_topology,
    partition_lookahead,
)

HORIZON = 3.0
SEED = 11


@pytest.fixture(scope="module")
def grid_topology():
    """Four 10-node islands on a 30 ms backbone ring."""
    return clustered_random_topology(4, 10, seed=SEED)


def _grid_endpoints(topology):
    """A few non-gateway endpoints per island — guarantees the flow
    pool mixes same-island (multi-hop local) and cross-island
    (multi-hop through the cut) traffic."""
    by_cluster = {}
    for node in sorted(topology.nodes()):
        by_cluster.setdefault(node.split("n", 1)[0], []).append(node)
    pool = []
    for members in by_cluster.values():
        pool.extend(m for m in members if not m.endswith("n0"))
    return pool


def _grid_flows(topology):
    return list(
        iter_forwarding_flows(
            "elephant-mice",
            _grid_endpoints(topology),
            seed=SEED,
            horizon=HORIZON,
            rate=30.0,
            packet_rate=20.0,
        )
    )


@pytest.fixture(scope="module")
def reference_report(grid_topology):
    """The monolithic run every sharded configuration must reproduce."""
    return forwarding_experiment(
        grid_topology,
        _grid_flows(grid_topology),
        HORIZON,
        seed=SEED,
        shards=1,
        endpoints=_grid_endpoints(grid_topology),
    )


class TestForwardingParityGrid:
    """report_hash is a pure function of the simulated physics."""

    def test_reference_does_real_work(self, reference_report):
        assert reference_report.shards == 1
        assert reference_report.flows > 20
        assert reference_report.delivered > 200

    @pytest.mark.parametrize("shards", [2, 4, 8])
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_sharded_matches_monolithic(
        self, grid_topology, reference_report, shards, scheduler
    ):
        report = forwarding_experiment(
            grid_topology,
            _grid_flows(grid_topology),
            HORIZON,
            seed=SEED,
            shards=shards,
            scheduler=scheduler,
            endpoints=_grid_endpoints(grid_topology),
            processes=False,
        )
        assert report.shards == shards
        assert report.report_hash == reference_report.report_hash
        assert report.delivered == reference_report.delivered

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_window_policy_never_changes_the_hash(
        self, grid_topology, reference_report, adaptive
    ):
        report = forwarding_experiment(
            grid_topology,
            _grid_flows(grid_topology),
            HORIZON,
            seed=SEED,
            shards=4,
            adaptive_window=adaptive,
            endpoints=_grid_endpoints(grid_topology),
            processes=False,
        )
        assert report.adaptive_window is adaptive
        assert report.report_hash == reference_report.report_hash

    @pytest.mark.usefixtures("retired_engine_env")
    def test_engine_variables_are_ignored(self, grid_topology, reference_report):
        report = forwarding_experiment(
            grid_topology,
            _grid_flows(grid_topology),
            HORIZON,
            seed=SEED,
            endpoints=_grid_endpoints(grid_topology),
        )
        assert report.adaptive_window is False
        assert (report.shards, report.scheduler) == (1, "calendar")
        assert report.report_hash == reference_report.report_hash

    def test_explicit_cluster_assignment_matches(
        self, grid_topology, reference_report
    ):
        assignment = cluster_assignment(grid_topology, 4)
        report = forwarding_experiment(
            grid_topology,
            _grid_flows(grid_topology),
            HORIZON,
            seed=SEED,
            shards=4,
            assignment=assignment,
            endpoints=_grid_endpoints(grid_topology),
            processes=False,
        )
        # Cutting on the island seams leaves only the backbone in the
        # cut, so the lookahead is the backbone delay — and traffic
        # genuinely crossed it, multi-hop, both directions.
        assert report.lookahead == partition_lookahead(grid_topology, assignment)
        assert report.lookahead > 0.025
        assert report.boundary_packets > 0
        assert report.report_hash == reference_report.report_hash

    def test_fault_plan_parity_across_shard_counts(self, grid_topology):
        plan = FaultPlan.parse(
            "loss-burst:p=0.2,t=0.5,dur=1.0;link-down:t=1.2,dur=0.4", seed=5
        )
        reports = [
            forwarding_experiment(
                grid_topology,
                _grid_flows(grid_topology),
                HORIZON,
                seed=SEED,
                shards=shards,
                fault_plan=plan,
                endpoints=_grid_endpoints(grid_topology),
                processes=False,
            )
            for shards in (1, 2, 4)
        ]
        hashes = {r.report_hash for r in reports}
        assert len(hashes) == 1
        # The plan actually bit: fewer deliveries than the clean run.
        clean = forwarding_experiment(
            grid_topology,
            _grid_flows(grid_topology),
            HORIZON,
            seed=SEED,
            shards=1,
            endpoints=_grid_endpoints(grid_topology),
        )
        assert reports[0].delivered < clean.delivered

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_workers_match_in_process(
        self, grid_topology, reference_report
    ):
        report = forwarding_experiment(
            grid_topology,
            _grid_flows(grid_topology),
            HORIZON,
            seed=SEED,
            shards=2,
            endpoints=_grid_endpoints(grid_topology),
            processes=True,
        )
        assert report.report_hash == reference_report.report_hash
        assert report.pipe_bytes > 0


class TestForwardingValidation:
    def test_needs_positive_horizon(self, grid_topology):
        with pytest.raises(ConfigurationError):
            forwarding_experiment(grid_topology, [], 0.0, shards=1)

    def test_sharded_sim_needs_two_shards(self, grid_topology):
        with pytest.raises(ConfigurationError, match="2 shards"):
            ShardedForwardingSim(grid_topology, 1)

    def test_unknown_endpoint_rejected(self, grid_topology):
        with pytest.raises(ConfigurationError, match="unknown endpoint"):
            forwarding_experiment(
                grid_topology, [], 1.0, shards=1, endpoints=["nope"]
            )

    def test_assignment_must_cover_all_nodes(self, grid_topology):
        partial = cluster_assignment(grid_topology, 2)
        partial.pop(sorted(partial)[0])
        with pytest.raises(ConfigurationError, match="misses topology nodes"):
            ShardedForwardingSim(
                grid_topology, 2, assignment=partial, processes=False
            )

    def test_assignment_regions_must_be_in_range(self, grid_topology):
        bad = cluster_assignment(grid_topology, 2)
        bad[sorted(bad)[0]] = 7
        with pytest.raises(ConfigurationError, match="outside"):
            ShardedForwardingSim(
                grid_topology, 2, assignment=bad, processes=False
            )

    def test_zero_delay_cut_rejected(self):
        with pytest.raises(ConfigurationError, match="zero delay"):
            ShardedForwardingSim(
                line_topology(4, delay_s=0.0), 2, processes=False
            )

    def test_foreign_flow_source_rejected(self, grid_topology):
        spec = FlowSpec(
            flow=FiveTuple("ghost", "c0n1", 1000, 80, 6),
            start=0.1,
            duration=1.0,
        )
        with pytest.raises(ConfigurationError, match="not a topology node"):
            forwarding_experiment(grid_topology, [spec], 1.0, shards=1)


class TestFastForward:
    def test_fast_forward_over_quiet_tail(self):
        # Two 20 ms bursts, 0.5 s apart, each followed by a quiet tail.
        specs = [
            FlowSpec(
                flow=FiveTuple("r0", "r3", 1000 + k, 80, 6),
                start=0.5 * k,
                duration=0.02,
                packet_rate=500.0,
            )
            for k in range(2)
        ]
        sim = ShardedForwardingSim(
            line_topology(4, delay_s=0.002), 2, seed=1, processes=False
        )
        report = sim.run(specs, 1.0)
        assert report.delivered > 0
        assert report.boundary_packets > 0  # traffic really crossed
        # ~40ms of traffic against a 1s horizon at a 2ms lookahead:
        # without fast-forward this would take hundreds of windows.
        assert report.fast_forwards > 0
        assert report.windows < 200


class TestAdaptiveWindowController:
    def test_grows_geometrically_while_quiet(self):
        win = AdaptiveWindow(0.01, grow=2.0, max_factor=32.0)
        widths = []
        for _ in range(7):
            widths.append(win.width())
            win.observe(0)
        assert widths == [
            0.01 * f for f in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 32.0)
        ]
        assert win.grows == 5  # the capped observation does not count

    def test_boundary_traffic_resets_to_base(self):
        win = AdaptiveWindow(0.01)
        for _ in range(3):
            win.observe(0)
        assert win.width() > 0.01
        win.observe(4)
        assert win.width() == 0.01
        assert win.resets == 1
        win.observe(2)  # already at base: no second reset counted
        assert win.resets == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_s=0.0),
            dict(base_s=-1.0),
            dict(base_s=0.01, grow=1.0),
            dict(base_s=0.01, max_factor=0.5),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveWindow(**kwargs)


class TestCodecs:
    def _specs(self):
        return [
            FlowSpec(
                flow=FiveTuple("c0n1", "c1n2", 40000 + i, 80, 6),
                start=0.25 * i,
                duration=1.5,
                packet_rate=12.5,
                malicious=bool(i % 2),
                retransmit_probability=0.125 * i,
                sends_fin=not i % 3,
                constant_rate=bool(i % 2),
            )
            for i in range(5)
        ]

    def test_flow_chunk_round_trip(self):
        nodes = ["c0n1", "c1n2", "c2n3"]
        index = {name: k for k, name in enumerate(nodes)}
        chunk = [(100 + i, spec) for i, spec in enumerate(self._specs())]
        payload = _pack_flow_chunk(chunk, index)
        assert _unpack_flow_chunk(payload, nodes) == chunk

    def test_boundary_row_round_trips_tcp(self):
        nodes = ["a", "b", "gw"]
        index = {name: k for k, name in enumerate(nodes)}
        packet = tcp_packet(
            "a", "b", 1234, 80, seq=7, payload_size=512, flow_id=42,
            retransmission=True, malicious=True, created_at=1.25,
        )
        packet.ttl = 17
        row = _boundary_row(2.5, "gw", packet, index)
        assert len(row) == BOUNDARY_COLUMNS
        arrival, ingress, restored = _row_to_packet(row, nodes)
        assert arrival == 2.5
        assert ingress == "gw"
        assert restored.src == "a" and restored.dst == "b"
        assert restored.ttl == 17
        assert restored.flow_id == 42
        assert restored.malicious_ground_truth is True
        assert restored.created_at == 1.25
        assert restored.tcp.seq == 7
        assert restored.tcp.flags == packet.tcp.flags
        assert restored.tcp.is_retransmission_ground_truth is True
        assert restored.icmp is None

    def test_boundary_row_round_trips_icmp(self):
        nodes = ["a", "b"]
        index = {name: k for k, name in enumerate(nodes)}
        probe = tcp_packet("a", "b", 1234, 80, seq=1)
        packet = icmp_time_exceeded("b", probe, created_at=0.25)
        row = _boundary_row(0.5, "a", packet, index)
        _, _, restored = _row_to_packet(row, nodes)
        assert restored.icmp is not None
        assert restored.icmp.icmp_type == IcmpType.TIME_EXCEEDED
        assert restored.icmp.original_probe_id == probe.packet_id
        assert restored.tcp is None


class TestFlowStream:
    def test_deterministic_and_lazy(self):
        pool = [f"c0n{i}" for i in range(1, 6)]
        first = list(
            iter_forwarding_flows(
                "elephant-mice", pool, seed=3, horizon=5.0, flows=20
            )
        )
        second = list(
            iter_forwarding_flows(
                "elephant-mice", pool, seed=3, horizon=5.0, flows=20
            )
        )
        assert first == second
        assert len(first) <= 20
        for spec in first:
            assert spec.flow.src in pool
            assert spec.flow.dst in pool
            assert spec.flow.src != spec.flow.dst

    def test_flow_cap_respected(self):
        pool = ["a", "b", "c"]
        capped = list(
            iter_forwarding_flows(
                "elephant-mice", pool, seed=3, horizon=30.0,
                flows=4, rate=20.0,
            )
        )
        assert len(capped) == 4

    def test_needs_two_endpoints(self):
        with pytest.raises(ConfigurationError):
            next(iter_forwarding_flows("elephant-mice", ["solo"], seed=1))
