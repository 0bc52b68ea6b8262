"""The assembled network: topology + links + routers + hosts.

:class:`Network` instantiates a :class:`~repro.netsim.link.Link` pair
per topology edge, forwards packets hop-by-hop via routing tables,
decrements TTL and emits ICMP time-exceeded replies (so traceroute
works), and delivers packets to host handlers.  Nodes can additionally
host in-path *dataplane programs* (e.g. a Blink pipeline) that observe
every forwarded packet — the "programmable data plane" of the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.errors import ConfigurationError, RoutingError
from repro.netsim.events import EventLoop
from repro.netsim.link import Link, LinkTap
from repro.netsim.packet import IcmpType, Packet, Protocol as IpProto, icmp_time_exceeded
from repro.netsim.routing import StaticRouter
from repro.netsim.topology import Topology
from repro.obs import metrics as obs_metrics

HostHandler = Callable[[Packet, float], None]

# (packet, egress_node, ingress_node, arrival_time) for a packet that
# left this shard over a boundary link; the coordinator ships it to the
# owning shard.
RemoteEgress = Callable[[Packet, str, str, float], None]


class DataplaneProgram(Protocol):
    """In-switch program observing packets as they are forwarded.

    ``process`` sees every packet the node forwards (after TTL
    handling) and may rewrite the chosen next hop by returning a node
    name, or None to keep the routing-table decision.
    """

    def process(self, packet: Packet, now: float, node: str) -> Optional[str]:
        ...


class Network:
    """A runnable packet network on top of the event loop.

    The ``network.*`` and per-link ``link.*`` counters go to the
    :mod:`repro.obs.metrics` registry active when the network is built,
    else to a private one (:attr:`metrics` either way).
    """

    def __init__(
        self,
        topology: Topology,
        loop: Optional[EventLoop] = None,
        seed: int = 0,
        default_queue_packets: int = 1000,
        scheduler: Optional[str] = None,
        local_nodes: "Optional[set] | None" = None,
        remote_egress: Optional[RemoteEgress] = None,
        router: Optional[StaticRouter] = None,
    ):
        self.topology = topology
        self.loop = loop or EventLoop(scheduler=scheduler)
        registry = obs_metrics.current()
        self.metrics = registry if registry is not None else obs_metrics.MetricRegistry()
        if router is not None:
            # A precomputed (possibly destination-restricted) router,
            # shared across shard networks: tables for a 1k-router
            # topology are expensive to build and identical per shard,
            # so the sharded coordinator computes them once pre-fork.
            self.router = router
        else:
            self.router = StaticRouter(topology)
            self.router.compute()
        # Sharded operation: the network owns only `local_nodes` (None =
        # everything).  Links whose source is local are instantiated —
        # including boundary links, whose far end lives in another
        # process and is reached through the `remote_egress` callback.
        self.local_nodes = (
            set(local_nodes) if local_nodes is not None else None
        )
        self.remote_egress = remote_egress
        self._links: Dict[Tuple[str, str], Link] = {}
        self._host_handlers: Dict[str, HostHandler] = {}
        self._programs: Dict[str, List[DataplaneProgram]] = {}
        self._icmp_enabled: Dict[str, bool] = {}
        for a, b in topology.links():
            props = topology.link_properties(a, b)
            for src, dst in ((a, b), (b, a)):
                if self.local_nodes is not None and src not in self.local_nodes:
                    continue
                # Each link derives its loss RNG from (seed, src, dst)
                # via the sha256 per-link scheme inside Link — *not*
                # from draws off a shared generator, whose streams
                # depended on dict iteration order of the topology.
                self._links[(src, dst)] = Link(
                    loop=self.loop,
                    src=src,
                    dst=dst,
                    bandwidth_bps=props.bandwidth_bps,
                    delay_s=props.delay_s,
                    loss_rate=props.loss_rate,
                    queue_packets=default_queue_packets,
                    metrics=self.metrics,
                    seed=seed,
                )

    # -- wiring ---------------------------------------------------------

    def attach_host(self, node: str, handler: HostHandler) -> None:
        """Register the receive handler of a host node."""
        if not self.topology.has_node(node):
            raise ConfigurationError(f"unknown node {node!r}")
        self._host_handlers[node] = handler

    def attach_program(self, node: str, program: DataplaneProgram) -> None:
        """Install a dataplane program on a (router) node."""
        if not self.topology.has_node(node):
            raise ConfigurationError(f"unknown node {node!r}")
        self._programs.setdefault(node, []).append(program)

    def links(self) -> List[Link]:
        """Every instantiated (locally owned) unidirectional link."""
        return list(self._links.values())

    def link(self, src: str, dst: str) -> Link:
        """The unidirectional link object ``src -> dst`` (for taps)."""
        key = (src, dst)
        if key not in self._links:
            raise ConfigurationError(f"no link {src!r}->{dst!r}")
        return self._links[key]

    def install_tap(self, src: str, dst: str, tap: LinkTap, both_directions: bool = False) -> None:
        """Install a MitM tap on a link (one or both directions)."""
        self.link(src, dst).tap = tap
        if both_directions:
            self.link(dst, src).tap = tap

    def set_icmp_enabled(self, node: str, enabled: bool) -> None:
        """Whether ``node`` answers TTL expiry with time-exceeded."""
        self._icmp_enabled[node] = enabled

    # -- sending --------------------------------------------------------

    def send(self, packet: Packet, from_node: Optional[str] = None) -> None:
        """Inject ``packet`` at ``from_node`` (default: its src field)."""
        origin = from_node or packet.src
        if not self.topology.has_node(origin):
            raise RoutingError(f"cannot inject at unknown node {origin!r}")
        packet.created_at = self.loop.now
        self._forward(packet, origin)

    def inject_remote(self, packet: Packet, node: str, arrival: float) -> None:
        """Admit a packet shipped from another shard.

        Scheduled as a transient at the pre-computed ``arrival`` time;
        the packet then forwards from ``node`` exactly as if the
        boundary link had delivered it locally.  The caller (the shard
        synchroniser) is responsible for admitting records in global
        ``(time, insertion_seq)`` order.
        """
        self.loop.schedule_transient(
            arrival,
            lambda p=packet, n=node: self._forward(p, n),
            name="network.remote_ingress",
        )

    # -- forwarding internals --------------------------------------------

    def _forward(self, packet: Packet, node: str) -> None:
        if self._is_destination(packet, node):
            self._deliver_local(packet, node)
            return

        # Routers decrement TTL on receipt and answer expiry with ICMP
        # time-exceeded; hosts neither decrement nor expire packets.
        if self.topology.node_properties(node).role == "router":
            if packet.decrement_ttl() <= 0:
                self._handle_ttl_expiry(packet, node)
                return

        try:
            route = self.router.table(node).lookup(packet.dst)
        except RoutingError:
            self.metrics.inc("network.no_route")
            return
        next_hop = route.next_hop

        for program in self._programs.get(node, []):
            override = program.process(packet, self.loop.now, node)
            if override is not None:
                next_hop = override

        if not self.topology.has_link(node, next_hop):
            self.metrics.inc("network.bad_next_hop")
            return

        link = self._links[(node, next_hop)]
        if self.local_nodes is not None and next_hop not in self.local_nodes:
            # Boundary link: the far end lives in another shard.  The
            # arrival time is computed analytically *now* (not via a
            # local delivery event, which would fire a lookahead window
            # too late for the destination shard to admit in order).
            arrival = link.transmit_remote(packet)
            if arrival is not None and self.remote_egress is not None:
                self.remote_egress(packet, node, next_hop, arrival)
            return
        link.transmit(packet, lambda p, nh=next_hop: self._forward(p, nh))

    def _is_destination(self, packet: Packet, node: str) -> bool:
        if packet.dst == node:
            return True
        meta = self.topology.node_properties(node).metadata
        addresses = meta.get("addresses", ())
        return packet.dst in addresses

    def _deliver_local(self, packet: Packet, node: str) -> None:
        self.metrics.inc("network.delivered")
        handler = self._host_handlers.get(node)
        if handler is not None:
            handler(packet, self.loop.now)
        # Pooled packets end their lifecycle at local delivery: handlers
        # that retain one must copy() it (the free-list contract).
        if packet.pooled:
            packet.release()

    def _handle_ttl_expiry(self, packet: Packet, node: str) -> None:
        self.metrics.inc("network.ttl_expired")
        if packet.protocol == IpProto.ICMP and packet.icmp is not None:
            # Never answer an ICMP error with another ICMP error.
            if packet.icmp.icmp_type == IcmpType.TIME_EXCEEDED:
                return
        if not self._icmp_enabled.get(node, True):
            return
        reply = icmp_time_exceeded(node, packet, created_at=self.loop.now)
        self._forward(reply, node)

    # -- running ----------------------------------------------------------

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        return self.loop.run_until(end_time, max_events=max_events)

    @property
    def now(self) -> float:
        return self.loop.now
