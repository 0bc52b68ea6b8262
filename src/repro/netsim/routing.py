"""Routing tables over a :class:`~repro.netsim.topology.Topology`.

Provides static shortest-path routing with longest-prefix-match
destination lookup and per-prefix next-hop overrides — the override is
exactly the knob Blink turns when it "reroutes this prefix along a
different next-hop".
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import RoutingError
from repro.netsim.topology import Topology


@dataclass(frozen=True)
class Route:
    """One routing-table entry."""

    prefix: str
    next_hop: str
    origin: str = "static"  # "static" | "spf" | "blink-override"


class RoutingTable:
    """Longest-prefix-match table for a single node.

    Destinations may be IP addresses (matched against CIDR prefixes) or
    symbolic names (matched exactly against symbolic "prefixes").
    """

    def __init__(self, node: str):
        self.node = node
        self._ip_routes: Dict[str, Route] = {}
        self._symbolic_routes: Dict[str, Route] = {}

    def install(self, prefix: str, next_hop: str, origin: str = "static") -> None:
        route = Route(prefix, next_hop, origin)
        try:
            network = ipaddress.ip_network(prefix, strict=False)
        except ValueError:
            self._symbolic_routes[prefix] = route
        else:
            self._ip_routes[str(network)] = route

    def withdraw(self, prefix: str) -> None:
        try:
            key = str(ipaddress.ip_network(prefix, strict=False))
        except ValueError:
            self._symbolic_routes.pop(prefix, None)
        else:
            self._ip_routes.pop(key, None)

    def lookup(self, destination: str) -> Route:
        if destination in self._symbolic_routes:
            return self._symbolic_routes[destination]
        try:
            address = ipaddress.ip_address(destination)
        except ValueError:
            raise RoutingError(f"{self.node}: no route to {destination!r}")
        best: Optional[Tuple[int, Route]] = None
        for prefix, route in self._ip_routes.items():
            network = ipaddress.ip_network(prefix)
            if address in network:
                if best is None or network.prefixlen > best[0]:
                    best = (network.prefixlen, route)
        if best is None:
            raise RoutingError(f"{self.node}: no route to {destination!r}")
        return best[1]

    def routes(self) -> List[Route]:
        return list(self._ip_routes.values()) + list(self._symbolic_routes.values())


class StaticRouter:
    """Computes shortest-path routing tables for every node of a topology.

    ``compute()`` installs, for every node, a symbolic route to every
    other node (next hop on the weighted shortest path).  IP prefixes
    announced at specific nodes via :meth:`announce_prefix` get
    longest-prefix-match entries pointing along the same trees.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.tables: Dict[str, RoutingTable] = {
            node: RoutingTable(node) for node in topology.nodes()
        }
        self._prefix_homes: Dict[str, str] = {}

    def compute(self, destinations: Optional[Iterable[str]] = None) -> None:
        """(Re)build symbolic routes from current topology state.

        One Dijkstra *per destination* instead of one per (source,
        destination) pair: the shortest-path tree rooted at ``d`` gives
        every node's next hop toward ``d`` at once (the penultimate hop
        of the root-to-node path — valid because link weights are
        symmetric), turning the all-pairs table build from ``O(n^2)``
        shortest-path calls into ``O(n)``.  ``destinations`` restricts
        the build to routes *toward* those nodes — the internet-scale
        forwarding path computes tables only for actual traffic
        endpoints, which on a 1k-router network is the difference
        between ~64 Dijkstras and ~1M pair queries.
        """
        if destinations is None:
            destinations = self.topology.nodes()
        for destination in destinations:
            self._install_tree(destination, destination, origin="spf")
        for prefix, home in self._prefix_homes.items():
            self._install_prefix(prefix, home)

    def _install_tree(self, prefix: str, root: str, origin: str = "spf") -> None:
        """Install ``prefix -> next hop toward root`` at every node."""
        import networkx as nx

        if not self.topology.has_node(root):
            raise RoutingError(f"no node {root!r} to route toward")
        paths = nx.single_source_dijkstra_path(
            self.topology.graph,
            root,
            weight=lambda a, b, data: data["props"].weight,
        )
        missing = [n for n in self.topology.nodes() if n not in paths]
        if missing:
            raise RoutingError(
                f"no path {missing[0]} -> {root}: graph is disconnected"
            )
        for node, path in paths.items():
            if node == root:
                continue
            # ``path`` runs root -> node; the next hop from ``node``
            # toward ``root`` is the penultimate element.
            self.tables[node].install(prefix, path[-2], origin=origin)

    def announce_prefix(self, prefix: str, at_node: str) -> None:
        """Attach an IP prefix to a node and install routes toward it."""
        if not self.topology.has_node(at_node):
            raise RoutingError(f"cannot announce {prefix} at unknown node {at_node!r}")
        self._prefix_homes[prefix] = at_node
        self._install_prefix(prefix, at_node)

    def _install_prefix(self, prefix: str, home: str) -> None:
        self._install_tree(prefix, home, origin="spf")

    def table(self, node: str) -> RoutingTable:
        if node not in self.tables:
            raise RoutingError(f"no routing table for {node!r}")
        return self.tables[node]

    def override_next_hop(self, node: str, prefix: str, next_hop: str) -> None:
        """Install a per-prefix override (Blink's reroute primitive)."""
        if not self.topology.has_link(node, next_hop):
            raise RoutingError(
                f"override at {node}: {next_hop!r} is not adjacent"
            )
        self.table(node).install(prefix, next_hop, origin="blink-override")

    def path(self, src: str, dst_node: str) -> List[str]:
        """Follow symbolic tables from ``src`` to node ``dst_node``."""
        path = [src]
        current = src
        hops = 0
        limit = len(self.topology.nodes()) + 1
        while current != dst_node:
            route = self.table(current).lookup(dst_node)
            current = route.next_hop
            path.append(current)
            hops += 1
            if hops > limit:
                raise RoutingError(f"routing loop from {src} to {dst_node}: {path}")
        return path
