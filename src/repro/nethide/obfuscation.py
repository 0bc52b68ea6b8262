"""NetHide: computing and serving obfuscated (virtual) topologies.

NetHide answers traceroute with a *virtual* topology chosen so that
(i) no link's flow density exceeds a security threshold — so an
attacker mapping the network cannot find a link whose congestion
partitions many flows — while (ii) maximising accuracy and utility of
what users see.  The original uses an ILP; we use a greedy
k-shortest-paths heuristic, which preserves the behaviour the HotNets
paper builds on: the mechanism that *lies in ICMP replies* is
identical whether the lie is benign (NetHide) or malicious
(Section 4.3's "present wrong information about the topology").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.nethide.metrics import (
    flow_density,
    max_flow_density,
    path_links,
    topology_accuracy,
    topology_utility,
)
from repro.netsim.topology import Topology

if TYPE_CHECKING:
    import networkx as nx

Pair = Tuple[str, str]


@dataclass
class VirtualTopology:
    """The result of obfuscation: one virtual path per (s, t) pair."""

    physical_paths: Dict[Pair, List[str]]
    virtual_paths: Dict[Pair, List[str]]
    security_threshold: int

    @property
    def accuracy(self) -> float:
        return topology_accuracy(self.physical_paths, self.virtual_paths)

    @property
    def utility(self) -> float:
        return topology_utility(self.physical_paths, self.virtual_paths)

    @property
    def max_density(self) -> int:
        return max_flow_density(self.virtual_paths)

    @property
    def secure(self) -> bool:
        return self.max_density <= self.security_threshold

    def virtual_path(self, src: str, dst: str) -> List[str]:
        if (src, dst) in self.virtual_paths:
            return self.virtual_paths[(src, dst)]
        if (dst, src) in self.virtual_paths:
            return list(reversed(self.virtual_paths[(dst, src)]))
        raise ConfigurationError(f"no virtual path for pair ({src}, {dst})")


def physical_paths_for(topology: Topology, pairs: Optional[Sequence[Pair]] = None) -> Dict[Pair, List[str]]:
    """Shortest physical path per (ordered) node pair."""
    if pairs is None:
        nodes = topology.nodes(role="router")
        pairs = [(a, b) for a, b in itertools.combinations(nodes, 2)]
    return {pair: topology.shortest_path(*pair) for pair in pairs}


class NetHideObfuscator:
    """Greedy heuristic replacing NetHide's ILP.

    Repeatedly takes the link with the highest flow density above the
    threshold and, among the (s, t) pairs crossing it, moves the pair
    with the cheapest accuracy loss onto an alternative simple path
    avoiding that link (up to ``k_candidates`` candidates per pair).
    """

    def __init__(
        self,
        topology: Topology,
        security_threshold: int,
        k_candidates: int = 6,
        seed: int = 0,
        max_iterations: int = 10_000,
    ):
        if security_threshold < 1:
            raise ConfigurationError("security threshold must be >= 1")
        if k_candidates < 1:
            raise ConfigurationError("need at least one candidate path")
        self.topology = topology
        self.security_threshold = security_threshold
        self.k_candidates = k_candidates
        self.max_iterations = max_iterations
        self._rng = random.Random(seed)

    def compute(self, pairs: Optional[Sequence[Pair]] = None) -> VirtualTopology:
        physical = physical_paths_for(self.topology, pairs)
        virtual: Dict[Pair, List[str]] = {pair: list(path) for pair, path in physical.items()}
        graph = self.topology.graph
        # Tabu: links a pair has been moved off may not be reused by it,
        # which rules out ping-pong cycles and guarantees termination.
        self._tabu: Dict[Pair, set] = {pair: set() for pair in physical}

        for _ in range(self.max_iterations):
            density = flow_density(virtual)
            hot_link, hot_count = self._hottest(density)
            if hot_count <= self.security_threshold:
                break
            moved = self._relieve(hot_link, physical, virtual, graph)
            if not moved:
                # No pair crossing the hot link can be moved; give up on
                # this link (the threshold may be infeasible).
                break
        return VirtualTopology(
            physical_paths=physical,
            virtual_paths=virtual,
            security_threshold=self.security_threshold,
        )

    def _hottest(self, density: Dict[tuple, int]) -> Tuple[tuple, int]:
        if not density:
            return (("", ""), 0)
        link = max(density, key=lambda l: density[l])
        return link, density[link]

    def _relieve(
        self,
        hot_link: tuple,
        physical: Dict[Pair, List[str]],
        virtual: Dict[Pair, List[str]],
        graph: nx.Graph,
    ) -> bool:
        """Move one pair off ``hot_link`` with minimal accuracy loss."""
        from repro.nethide.metrics import path_accuracy

        crossing = [
            pair for pair, path in virtual.items() if hot_link in path_links(path)
        ]
        if not crossing:
            return False
        self._rng.shuffle(crossing)
        best_choice: Optional[Tuple[Pair, List[str], float]] = None
        for pair in crossing:
            candidate = self._best_detour(pair, hot_link, physical[pair], graph)
            if candidate is None:
                continue
            detour, accuracy = candidate
            if best_choice is None or accuracy > best_choice[2]:
                best_choice = (pair, detour, accuracy)
        if best_choice is None:
            # No physical detour exists (the hot link is a bridge).
            # NetHide's virtual topology is not restricted to physical
            # links: splice a fabricated router into one pair's path so
            # the reported path no longer reveals the real link.  Each
            # moved pair gets its own virtual node, so the fabricated
            # links never accumulate density.
            pair = crossing[0]
            self._tabu[pair].add(hot_link)
            virtual[pair] = self._virtual_detour(virtual[pair], hot_link, pair)
            return True
        pair, detour, _ = best_choice
        self._tabu[pair].add(hot_link)
        virtual[pair] = detour
        return True

    def _virtual_detour(self, path: List[str], hot_link: tuple, pair: Pair) -> List[str]:
        """Replace ``hot_link`` in ``path`` with a fabricated waypoint."""
        a, b = hot_link
        detour: List[str] = []
        waypoint = f"virt-{pair[0]}-{pair[1]}"
        for node, nxt in zip(path, path[1:]):
            detour.append(node)
            if tuple(sorted((node, nxt))) == tuple(sorted((a, b))):
                detour.append(waypoint)
        detour.append(path[-1])
        return detour

    def _best_detour(
        self,
        pair: Pair,
        hot_link: tuple,
        physical_path: List[str],
        graph: nx.Graph,
    ) -> Optional[Tuple[List[str], float]]:
        import networkx as nx

        from repro.nethide.metrics import path_accuracy

        src, dst = pair
        best: Optional[Tuple[List[str], float]] = None
        try:
            candidates = nx.shortest_simple_paths(graph, src, dst)
        except nx.NetworkXNoPath:
            return None
        forbidden = self._tabu.get(pair, set()) | {hot_link}
        for i, candidate in enumerate(candidates):
            if i >= self.k_candidates:
                break
            if path_links(candidate) & forbidden:
                continue
            accuracy = path_accuracy(physical_path, candidate)
            if best is None or accuracy > best[1]:
                best = (list(candidate), accuracy)
        return best


class MaliciousTopologyFaker:
    """Offensive use of the same mechanism (Section 4.3).

    "The exact same technique could be used by malicious operators to
    present wrong information about the topology."  This faker invents
    a decoy topology: per pair, a path through ``decoy_hops`` fabricated
    router names, hiding the real infrastructure entirely.
    """

    def __init__(self, topology: Topology, decoy_hops: int = 4, seed: int = 0):
        if decoy_hops < 1:
            raise ConfigurationError("decoy paths need at least one hop")
        self.topology = topology
        self.decoy_hops = decoy_hops
        self._rng = random.Random(seed)

    def compute(self, pairs: Optional[Sequence[Pair]] = None) -> VirtualTopology:
        physical = physical_paths_for(self.topology, pairs)
        virtual: Dict[Pair, List[str]] = {}
        for index, (pair, path) in enumerate(sorted(physical.items())):
            src, dst = pair
            decoys = [f"decoy-{index}-{i}" for i in range(self.decoy_hops)]
            virtual[pair] = [src] + decoys + [dst]
        return VirtualTopology(
            physical_paths=physical,
            virtual_paths=virtual,
            security_threshold=0,
        )


class VirtualTopologyResponder:
    """Answers traceroute according to a virtual topology.

    Deployment mechanism of both NetHide and the malicious faker:
    intercept probes at the network edge and synthesise the ICMP
    time-exceeded replies the *virtual* path would have produced.  The
    reply for TTL k carries the address of the virtual path's k-th hop.
    """

    def __init__(self, virtual: VirtualTopology):
        self.virtual = virtual

    def reply_source_for(self, src: str, dst: str, ttl: int) -> Optional[str]:
        """Which router 'answers' a probe of the given TTL, or None if
        the TTL reaches the destination (no time-exceeded)."""
        path = self.virtual.virtual_path(src, dst)
        # path[0] is the source; hop k consumes TTL k.
        if ttl < 1:
            raise ConfigurationError("TTL must be >= 1")
        if ttl >= len(path) - 1:
            return None  # probe reaches the destination
        return path[ttl]

    def traceroute_view(self, src: str, dst: str) -> List[str]:
        """The full hop list a traceroute user would reconstruct."""
        hops: List[str] = []
        ttl = 1
        while True:
            hop = self.reply_source_for(src, dst, ttl)
            if hop is None:
                hops.append(dst)
                return hops
            hops.append(hop)
            ttl += 1
