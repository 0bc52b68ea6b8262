"""Cross-module integration tests: end-to-end scenarios from the paper.

Each test wires several subsystems together the way the benches and
examples do, asserting the paper's qualitative claims hold across the
composed stack.
"""

import pytest

from repro.blink.pipeline import BlinkSwitch
from repro.core.metrics import first_crossing_time
from repro.flows.flow import FiveTuple, hosts_in_prefix
from repro.netsim.network import Network
from repro.netsim.packet import tcp_packet
from repro.netsim.topology import triangle_with_hosts
from repro.obs import metrics as obs_metrics


class TestBlinkHijackOverNetwork:
    """E4: Blink in a real (simulated) network reroutes a healthy
    prefix onto the attacker's preferred path after the capture attack,
    executed with packets injected from hosts only."""

    PREFIX = "198.51.100.0/24"

    def _build(self):
        topology = triangle_with_hosts()
        network = Network(topology, seed=5)
        network.router.announce_prefix(self.PREFIX, "r2")
        # Blink runs on r0; primary next-hop direct (r2), backup via r1.
        switch = BlinkSwitch(
            {self.PREFIX: ["r2", "r1"]}, cells=16, retransmission_window=2.0
        )
        network.attach_program("r0", switch)
        return network, switch

    def test_healthy_traffic_keeps_primary_path(self):
        network, switch = self._build()
        destinations = list(hosts_in_prefix(self.PREFIX, 30))
        t = 0.0
        for round_index in range(10):
            for i, dst in enumerate(destinations):
                packet = tcp_packet("h0", dst, 20000 + i, 443, seq=round_index * 1460)
                network.loop.schedule_at(t, lambda p=packet: network.send(p, "h0"))
            t += 0.5
        network.run_until(t + 1.0)
        assert switch.reroutes == []
        assert switch.monitors[self.PREFIX].active_next_hop == "r2"

    def test_fake_retransmissions_hijack_prefix(self):
        network, switch = self._build()
        destinations = list(hosts_in_prefix(self.PREFIX, 40))
        t = 0.0
        # Attack: every flow repeats the same sequence number forever.
        for round_index in range(8):
            for i, dst in enumerate(destinations):
                packet = tcp_packet(
                    "h0", dst, 30000 + i, 443, seq=0, malicious=True
                )
                network.loop.schedule_at(t, lambda p=packet: network.send(p, "h0"))
            t += 0.5
        network.run_until(t + 1.0)
        monitor = switch.monitors[self.PREFIX]
        assert len(monitor.reroutes) >= 1
        assert monitor.active_next_hop != "r2"
        # Ground truth confirms the sample was attacker-dominated.
        assert monitor.reroutes[0].malicious_monitored_ground_truth >= 8

    def test_released_decisions_are_counted(self):
        """Network mode counts ``blink.decisions_released`` as replay does."""
        registry = obs_metrics.MetricRegistry()
        with obs_metrics.activate(registry):
            network, switch = self._build()
            destinations = list(hosts_in_prefix(self.PREFIX, 40))
            t = 0.0
            for _round in range(8):
                for i, dst in enumerate(destinations):
                    packet = tcp_packet("h0", dst, 30000 + i, 443, seq=0, malicious=True)
                    network.loop.schedule_at(t, lambda p=packet: network.send(p, "h0"))
                t += 0.5
            network.run_until(t + 1.0)
        assert switch.decisions
        assert registry.counter("blink.decisions_released") == len(switch.decisions)
        assert registry.counter("blink.packets_seen") > 0


class TestSupervisedBlinkEndToEnd:
    """E11: the Section 5 supervisor distinguishes the attack from a
    genuine failure on the full trace-driven pipeline."""

    PREFIX = "198.51.100.0/24"

    def _attack_trace(self):
        from repro.flows.generators import blink_attack_workload, DurationDistribution

        _, trace, _ = blink_attack_workload(
            horizon=180.0,
            legitimate_flows=300,
            malicious_flows=40,
            duration_model=DurationDistribution(median=3.0),
            seed=2,
        )
        return trace

    def test_supervisor_blocks_attack_driven_reroute(self):
        from repro.blink.pipeline import BlinkPrefixMonitor
        from repro.core.entities import Signal, SignalKind
        from repro.defenses.blink_defense import supervised_blink

        monitor = BlinkPrefixMonitor(
            self.PREFIX, ["nh1", "nh2"], cells=16, retransmission_window=2.0
        )
        supervised = supervised_blink(monitor)
        released = []
        for record in self._attack_trace():
            signal = Signal(
                SignalKind.HEADER_FIELD,
                "tcp.packet",
                {
                    "flow": record.flow,
                    "retransmission": record.is_retransmission,
                    "fin": record.is_fin_or_rst,
                    "malicious": record.malicious_ground_truth,
                },
                time=record.time,
            )
            released += supervised.observe(signal)
        # The attack generated enough fake retransmissions to trigger
        # Blink, but every reroute was vetoed as implausible.
        assert supervised.suppressed
        assert released == []


class TestPytheasDefenseEndToEnd:
    def test_outlier_filter_preserves_group_decision(self):
        from repro.defenses.pytheas_defense import MadOutlierFilter
        from repro.pytheas import (
            CdnSite,
            GroupPopulation,
            PytheasController,
            PytheasSimulation,
            QoEModel,
            SessionFeatures,
            TargetedLiar,
        )

        model = QoEModel(
            [
                CdnSite("cdn-A", base_qoe=80.0, capacity=5000, noise_std=4.0),
                CdnSite("cdn-B", base_qoe=74.0, capacity=5000, noise_std=4.0),
            ],
            seed=1,
        )
        controller = PytheasController(
            ["cdn-A", "cdn-B"], seed=2, report_filter=MadOutlierFilter()
        )
        population = GroupPopulation(
            features=SessionFeatures(asn=3303, location="zrh"),
            sessions_per_round=100,
            attacker_fraction=0.15,
            attacker_strategy=TargetedLiar("cdn-A"),
        )
        simulation = PytheasSimulation(controller, model, [population])
        simulation.run(100)
        group_id = controller.groups.group_ids()[0]
        assert controller.preferred_decision(group_id) == "cdn-A"


class TestTracerouteAgainstNetHide:
    def test_user_sees_virtual_topology(self):
        """Full loop: NetHide computes a virtual topology and the
        responder answers traceroute-style queries from it; the user's
        reconstructed map matches the virtual (not physical) paths."""
        from repro.nethide.obfuscation import (
            NetHideObfuscator,
            VirtualTopologyResponder,
            physical_paths_for,
        )
        from repro.nethide.metrics import max_flow_density
        from repro.netsim.topology import random_topology

        topology = random_topology(12, edge_probability=0.3, seed=9)
        base = max_flow_density(physical_paths_for(topology))
        virtual = NetHideObfuscator(
            topology, security_threshold=max(1, int(base * 0.8))
        ).compute()
        responder = VirtualTopologyResponder(virtual)
        for (src, dst), vpath in list(virtual.virtual_paths.items())[:10]:
            view = responder.traceroute_view(src, dst)
            assert view == vpath[1:]


class TestCampaignAcrossSystems:
    def test_threat_matrix_campaign(self):
        """Run one attack per threat-matrix cell in a single campaign."""
        from repro.attacks import (
            BlinkAnalyticalAttack,
            DapperMisdiagnosisAttack,
            MaliciousTopologyAttack,
            PytheasPoisoningAttack,
        )
        from repro.core.attack import Campaign

        campaign = Campaign("threat-matrix")
        campaign.add(BlinkAnalyticalAttack(), runs=5, seed=1)  # host x infra
        campaign.add(PytheasPoisoningAttack(), rounds=40, attacker_fraction=0.15)  # host x endpoint
        campaign.add(DapperMisdiagnosisAttack(), connections=50)  # mitm x infra
        campaign.add(MaliciousTopologyAttack(), nodes=8)  # operator x endpoint
        report = campaign.run()
        assert len(report.results) == 4
        assert report.success_rate >= 0.75
        by_attack = report.by_attack()
        assert len(by_attack) == 4
