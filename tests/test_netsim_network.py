"""Tests for the assembled packet network."""

import pytest

from repro.netsim.network import Network
from repro.netsim.packet import IcmpType, Packet, Protocol, tcp_packet
from repro.netsim.topology import line_topology, triangle_with_hosts
from repro.obs import metrics as obs_metrics


def _line_net():
    topo = line_topology(4)
    topo.add_node("src", role="host")
    topo.add_node("dst", role="host")
    topo.add_link("src", "r0", delay_s=0.0005)
    topo.add_link("dst", "r3", delay_s=0.0005)
    return Network(topo, seed=1)


class TestDelivery:
    def test_end_to_end_delivery(self):
        network = _line_net()
        received = []
        network.attach_host("dst", lambda p, t: received.append((p, t)))
        network.send(tcp_packet("src", "dst", 1000, 80, seq=0))
        network.run_until(1.0)
        assert len(received) == 1
        packet, t = received[0]
        assert packet.dst == "dst"
        assert t > 0.0

    def test_ttl_decrements_per_router(self):
        network = _line_net()
        received = []
        network.attach_host("dst", lambda p, t: received.append(p))
        packet = tcp_packet("src", "dst", 1000, 80, seq=0)
        packet.ttl = 64
        network.send(packet)
        network.run_until(1.0)
        assert received[0].ttl == 64 - 4  # r0..r3

    def test_address_metadata_delivery(self):
        topo = line_topology(2)
        topo.add_node("h", role="host", addresses=("198.51.100.5",))
        topo.add_link("h", "r1")
        network = Network(topo)
        got = []
        network.attach_host("h", lambda p, t: got.append(p))
        network.router.announce_prefix("198.51.100.0/24", "h")
        network.send(tcp_packet("r0", "198.51.100.5", 1, 2, seq=0), from_node="r0")
        network.run_until(1.0)
        assert len(got) == 1


class TestTtlExpiry:
    def test_time_exceeded_reply_reaches_sender(self):
        network = _line_net()
        replies = []
        network.attach_host("src", lambda p, t: replies.append(p))
        probe = Packet(src="src", dst="dst", protocol=Protocol.ICMP, ttl=2, payload_size=28)
        from repro.netsim.packet import IcmpHeader

        probe.icmp = IcmpHeader(IcmpType.ECHO_REQUEST)
        network.send(probe)
        network.run_until(1.0)
        assert len(replies) == 1
        assert replies[0].src == "r1"  # TTL 2: expires at second router
        assert replies[0].icmp.icmp_type == IcmpType.TIME_EXCEEDED

    def test_icmp_disabled_router_stays_silent(self):
        network = _line_net()
        replies = []
        network.attach_host("src", lambda p, t: replies.append(p))
        network.set_icmp_enabled("r1", False)
        probe = Packet(src="src", dst="dst", protocol=Protocol.ICMP, ttl=2, payload_size=28)
        network.send(probe)
        network.run_until(1.0)
        assert replies == []

    def test_no_icmp_error_for_expired_icmp_error(self):
        registry = obs_metrics.MetricRegistry()
        with obs_metrics.activate(registry):
            network = _line_net()
        from repro.netsim.packet import IcmpHeader

        # A time-exceeded packet whose own TTL expires must not recurse.
        poison = Packet(
            src="r3",
            dst="src",
            protocol=Protocol.ICMP,
            ttl=1,
            icmp=IcmpHeader(IcmpType.TIME_EXCEEDED, original_probe_id=1),
        )
        network.send(poison, from_node="r3")
        network.run_until(1.0)
        assert registry.counter("network.ttl_expired") >= 1


class TestLinkStats:
    def test_stats_exclude_a_link_whose_name_extends_this_one(self):
        # h->l1 and h->l10 count into one registry; l1's stats must not
        # pick up l10's counters.
        from repro.netsim.topology import Topology

        topology = Topology()
        topology.add_node("h", role="router")
        for leaf in ("l1", "l10"):
            topology.add_node(leaf, role="host")
            topology.add_link("h", leaf)
        network = Network(topology, seed=1)
        network.attach_host("l10", lambda p, t: None)
        network.send(tcp_packet("l1", "l10", 1, 2, seq=0))
        network.run_until(1.0)
        assert network.link("h", "l1").stats() == {}
        assert network.link("h", "l10").stats() == {
            "link.h->l10.accepted": 1.0,
            "link.h->l10.delivered": 1.0,
        }


class TestDataplanePrograms:
    def test_program_sees_forwarded_packets(self):
        network = _line_net()
        seen = []

        class Spy:
            def process(self, packet, now, node):
                seen.append((node, packet.packet_id))
                return None

        network.attach_program("r1", Spy())
        network.attach_host("dst", lambda p, t: None)
        network.send(tcp_packet("src", "dst", 1, 2, seq=0))
        network.run_until(1.0)
        assert len(seen) == 1
        assert seen[0][0] == "r1"

    def test_program_next_hop_override(self):
        network = Network(triangle_with_hosts(), seed=1)
        received = []
        network.attach_host("h2", lambda p, t: received.append(p))

        class ForceVia:
            def process(self, packet, now, node):
                return "r1" if node == "r0" else None

        network.attach_program("r0", ForceVia())
        packet = tcp_packet("h0", "h2", 1, 2, seq=0)
        network.send(packet)
        network.run_until(1.0)
        assert len(received) == 1
        # Path h0-r0-r1-r2-h2 has 3 router hops instead of 2.
        assert received[0].ttl == 64 - 3

    def test_bad_override_counted_not_crashed(self):
        registry = obs_metrics.MetricRegistry()
        with obs_metrics.activate(registry):
            network = _line_net()

        class Broken:
            def process(self, packet, now, node):
                return "nonexistent"

        network.attach_program("r1", Broken())
        network.send(tcp_packet("src", "dst", 1, 2, seq=0))
        network.run_until(1.0)
        assert registry.counter("network.bad_next_hop") == 1


class TestTapInstallation:
    def test_install_tap_intercepts_direction(self):
        from repro.netsim.link import RecordTap

        network = _line_net()
        tap = RecordTap()
        network.install_tap("r1", "r2", tap)
        network.attach_host("dst", lambda p, t: None)
        network.send(tcp_packet("src", "dst", 1, 2, seq=0))
        network.run_until(1.0)
        assert len(tap.records) == 1


class TestLinkSeedDerivation:
    """Network links must use the sha256 per-link RNG scheme — not
    draws off a shared generator (which depended on topology dict
    iteration order)."""

    def test_network_links_match_standalone_links(self):
        from repro.netsim.events import EventLoop
        from repro.netsim.link import Link

        net = Network(triangle_with_hosts(), seed=7)
        for (src, dst), link in net._links.items():
            standalone = Link(
                loop=EventLoop(), src=src, dst=dst, seed=7
            )
            assert link.rng.getstate() == standalone.rng.getstate(), (src, dst)

    def test_link_streams_independent_per_direction(self):
        net = Network(triangle_with_hosts(), seed=7)
        a = net.link("r1", "r2").rng
        b = net.link("r2", "r1").rng
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_network_seed_changes_all_streams(self):
        net7 = Network(triangle_with_hosts(), seed=7)
        net8 = Network(triangle_with_hosts(), seed=8)
        assert (
            net7.link("r1", "r2").rng.getstate()
            != net8.link("r1", "r2").rng.getstate()
        )
