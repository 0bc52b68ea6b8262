"""Tests for bloom filters, FlowRadar and LossRadar."""

import pytest

from repro.core.errors import ConfigurationError, DecodeError
from repro.flows.flow import FiveTuple
from repro.sketches.bloom import BloomFilter, optimal_parameters
from repro.sketches.flowradar import FlowRadar
from repro.sketches.lossradar import LossRadarSegment, PacketDigest, PacketId


def _flows(n, subnet=1):
    return [
        FiveTuple(f"10.{subnet}.{i // 250}.{i % 250 + 1}", "198.51.100.1", 1000 + i % 60000, 443)
        for i in range(n)
    ]


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(1000, 0.01)
        flows = _flows(1000)
        bloom.add_all(f.packed() for f in flows)
        assert all(f.packed() in bloom for f in flows)

    def test_fpr_near_design_point(self):
        bloom = BloomFilter.for_capacity(2000, 0.01)
        bloom.add_all(f.packed() for f in _flows(2000, subnet=1))
        fpr = bloom.measured_false_positive_rate(
            f.packed() for f in _flows(3000, subnet=2)
        )
        assert fpr < 0.03

    def test_fill_factor_near_half_at_capacity(self):
        bloom = BloomFilter.for_capacity(2000, 0.01)
        bloom.add_all(f.packed() for f in _flows(2000))
        assert 0.4 < bloom.fill_factor < 0.6

    def test_overfill_explodes_fpr(self):
        bloom = BloomFilter.for_capacity(500, 0.01)
        bloom.add_all(f.packed() for f in _flows(3000))
        assert bloom.false_positive_rate > 0.3

    def test_add_if_absent_is_membership_then_add(self):
        keys = [f.packed() for f in _flows(300)] * 2
        reference = BloomFilter.for_capacity(100, 0.05)
        expected = []
        for key in keys:
            absent = key not in reference
            if absent:
                reference.add(key)
            expected.append(absent)
        bloom = BloomFilter.for_capacity(100, 0.05)
        assert [bloom.add_if_absent(key) for key in keys] == expected
        assert bytes(bloom._array) == bytes(reference._array)
        assert bloom.inserted == reference.inserted

    def test_optimal_parameters_sane(self):
        m, k = optimal_parameters(1000, 0.01)
        assert m > 1000
        assert 5 <= k <= 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(0, 1)
        with pytest.raises(ConfigurationError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ConfigurationError):
            optimal_parameters(10, 1.5)


class TestFlowRadar:
    def test_decode_recovers_all_flows_within_capacity(self):
        radar = FlowRadar.for_capacity(500, headroom=1.6)
        flows = _flows(500)
        for i, flow in enumerate(flows):
            radar.observe(flow, packets=i + 1)
        result = radar.decode()
        assert result.complete
        assert radar.decode_success_rate() == 1.0
        # Packet counts exact.
        assert result.flows[flows[10].stable_hash()] == 11

    def test_repeated_observations_accumulate_packets(self):
        radar = FlowRadar.for_capacity(100)
        flow = _flows(1)[0]
        radar.observe(flow, packets=3)
        radar.observe(flow, packets=4)
        assert radar.flows_seen == 1
        result = radar.decode()
        assert result.flows[flow.stable_hash()] == 7

    def test_observe_hashes_each_key_once(self, monkeypatch):
        from repro.sketches import bloom as bloom_module

        calls = []
        real = bloom_module._hash_pair
        monkeypatch.setattr(
            bloom_module, "_hash_pair", lambda item: calls.append(item) or real(item)
        )
        radar = FlowRadar.for_capacity(100)
        flows = _flows(40)
        for flow in flows + flows[:10]:
            radar.observe(flow)
        assert len(calls) == 50
        assert radar.flows_seen == radar.bloom.inserted == 40

    def test_overload_stalls_decode(self):
        radar = FlowRadar.for_capacity(500)
        for flow in _flows(1500):
            radar.observe(flow)
        result = radar.decode()
        assert not result.complete
        assert radar.decode_success_rate() < 0.5

    def test_decode_or_raise(self):
        radar = FlowRadar.for_capacity(100)
        for flow in _flows(500):
            radar.observe(flow)
        with pytest.raises(DecodeError) as info:
            radar.decode_or_raise()
        assert info.value.remaining > 0

    def test_load_factor(self):
        radar = FlowRadar(cells=100)
        for flow in _flows(50):
            radar.observe(flow)
        assert radar.load_factor == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlowRadar(cells=0)
        radar = FlowRadar(cells=10)
        with pytest.raises(ConfigurationError):
            radar.observe(_flows(1)[0], packets=0)


class TestLossRadar:
    def test_locates_exact_losses(self):
        segment = LossRadarSegment(cells=1024)
        flow = _flows(1)[0]
        for seq in range(5000):
            segment.transit(PacketId(flow, seq), lost=seq % 100 == 0)
        report = segment.report()
        assert report["decode_complete"]
        assert report["recall"] == 1.0
        assert report["spurious"] == 0
        assert report["reported"] == 50

    def test_no_losses_clean_digest(self):
        segment = LossRadarSegment(cells=256)
        flow = _flows(1)[0]
        for seq in range(1000):
            segment.transit(PacketId(flow, seq))
        found, complete = segment.locate_losses()
        assert complete
        assert found == set()

    def test_injection_breaks_decoding(self):
        segment = LossRadarSegment(cells=512)
        flow, attack_flow = _flows(2)
        for seq in range(3000):
            segment.transit(PacketId(flow, seq), lost=seq < 50)
        for seq in range(2000):
            segment.inject_upstream_only(PacketId(attack_flow, seq))
        report = segment.report()
        assert not report["decode_complete"]
        assert report["recall"] < 1.0

    def test_downstream_injection_shows_negative_counts(self):
        segment = LossRadarSegment(cells=512)
        flow, ghost = _flows(2)
        for seq in range(100):
            segment.transit(PacketId(flow, seq))
        segment.inject_downstream(PacketId(ghost, 0))
        diff = segment.upstream.subtract(segment.downstream)
        assert any(cell.count < 0 for cell in diff.cells)

    def test_subtract_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            PacketDigest(16).subtract(PacketDigest(32))
