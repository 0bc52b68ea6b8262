"""Network topology: nodes, links and their graph.

A :class:`Topology` is a thin, validated wrapper around a
``networkx.Graph`` whose edges carry :class:`LinkProperties`.  It is the
shared substrate for routing, traceroute, NetHide's virtual topologies
and the per-system simulations.  Generators for the standard shapes
used in the benches (line, fat-tree-ish, Waxman-style random) live here
too.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class LinkProperties:
    """Physical characteristics of a link.

    Attributes:
        bandwidth_bps: capacity in bits/second.
        delay_s: one-way propagation delay in seconds.
        loss_rate: independent random loss probability per packet.
        weight: routing metric (defaults to 1 = hop count).
    """

    bandwidth_bps: float = 1e9
    delay_s: float = 0.001
    loss_rate: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be positive: {self.bandwidth_bps}")
        if self.delay_s < 0:
            raise ConfigurationError(f"delay must be non-negative: {self.delay_s}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(f"loss rate must be in [0, 1): {self.loss_rate}")
        if self.weight <= 0:
            raise ConfigurationError(f"weight must be positive: {self.weight}")


@dataclass
class NodeProperties:
    """Role and metadata of a node."""

    role: str = "router"  # "router" | "host"
    metadata: Dict[str, object] = field(default_factory=dict)


class Topology:
    """An undirected network graph with typed link/node properties."""

    def __init__(self, name: str = "topology"):
        import networkx as nx

        self.name = name
        self._graph = nx.Graph()

    # -- construction -------------------------------------------------

    def add_node(self, node: str, role: str = "router", **metadata: object) -> None:
        if node in self._graph:
            raise ConfigurationError(f"duplicate node {node!r}")
        self._graph.add_node(node, props=NodeProperties(role=role, metadata=dict(metadata)))

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float = 1e9,
        delay_s: float = 0.001,
        loss_rate: float = 0.0,
        weight: float = 1.0,
    ) -> None:
        for node in (a, b):
            if node not in self._graph:
                raise ConfigurationError(f"unknown node {node!r}; add nodes before links")
        if a == b:
            raise ConfigurationError(f"self-loop on {a!r} not allowed")
        if self._graph.has_edge(a, b):
            raise ConfigurationError(f"duplicate link {a!r}-{b!r}")
        self._graph.add_edge(
            a,
            b,
            props=LinkProperties(
                bandwidth_bps=bandwidth_bps,
                delay_s=delay_s,
                loss_rate=loss_rate,
                weight=weight,
            ),
        )

    def remove_link(self, a: str, b: str) -> None:
        if not self._graph.has_edge(a, b):
            raise ConfigurationError(f"no link {a!r}-{b!r} to remove")
        self._graph.remove_edge(a, b)

    # -- queries ------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (treat as read-only)."""
        return self._graph

    def nodes(self, role: Optional[str] = None) -> List[str]:
        if role is None:
            return list(self._graph.nodes)
        return [
            n for n, data in self._graph.nodes(data=True) if data["props"].role == role
        ]

    def links(self) -> List[Tuple[str, str]]:
        return [tuple(sorted(edge)) for edge in self._graph.edges]

    def has_node(self, node: str) -> bool:
        return node in self._graph

    def has_link(self, a: str, b: str) -> bool:
        return self._graph.has_edge(a, b)

    def link_properties(self, a: str, b: str) -> LinkProperties:
        if not self._graph.has_edge(a, b):
            raise ConfigurationError(f"no link {a!r}-{b!r}")
        return self._graph.edges[a, b]["props"]

    def node_properties(self, node: str) -> NodeProperties:
        if node not in self._graph:
            raise ConfigurationError(f"no node {node!r}")
        return self._graph.nodes[node]["props"]

    def neighbors(self, node: str) -> List[str]:
        return list(self._graph.neighbors(node))

    def degree(self, node: str) -> int:
        return self._graph.degree[node]

    def is_connected(self) -> bool:
        import networkx as nx

        return bool(self._graph) and nx.is_connected(self._graph)

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Weighted shortest path (by link weight)."""
        import networkx as nx

        return nx.shortest_path(
            self._graph, src, dst, weight=lambda a, b, data: data["props"].weight
        )

    def all_shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        import networkx as nx

        return list(
            nx.all_shortest_paths(
                self._graph, src, dst, weight=lambda a, b, data: data["props"].weight
            )
        )

    def path_delay(self, path: Iterable[str]) -> float:
        """Sum of one-way propagation delays along ``path``."""
        nodes = list(path)
        total = 0.0
        for a, b in zip(nodes, nodes[1:]):
            total += self.link_properties(a, b).delay_s
        return total

    def subgraph(self, nodes: Iterable[str], name: Optional[str] = None) -> "Topology":
        """The induced subtopology over ``nodes`` (props copied)."""
        keep = set(nodes)
        for node in keep:
            if node not in self._graph:
                raise ConfigurationError(f"no node {node!r}")
        sub = Topology(name or f"{self.name}-sub")
        for node in sorted(keep):
            props: NodeProperties = self._graph.nodes[node]["props"]
            sub.add_node(node, role=props.role, **props.metadata)
        for a, b, data in self._graph.edges(data=True):
            if a in keep and b in keep:
                lp: LinkProperties = data["props"]
                sub.add_link(
                    a,
                    b,
                    bandwidth_bps=lp.bandwidth_bps,
                    delay_s=lp.delay_s,
                    loss_rate=lp.loss_rate,
                    weight=lp.weight,
                )
        return sub

    def copy(self, name: Optional[str] = None) -> "Topology":
        clone = Topology(name or f"{self.name}-copy")
        for node, data in self._graph.nodes(data=True):
            props: NodeProperties = data["props"]
            clone.add_node(node, role=props.role, **props.metadata)
        for a, b, data in self._graph.edges(data=True):
            lp: LinkProperties = data["props"]
            clone.add_link(
                a,
                b,
                bandwidth_bps=lp.bandwidth_bps,
                delay_s=lp.delay_s,
                loss_rate=lp.loss_rate,
                weight=lp.weight,
            )
        return clone


# -- generators -------------------------------------------------------


def line_topology(length: int, **link_kwargs: float) -> Topology:
    """``r0 - r1 - ... - r{length-1}`` — the traceroute workhorse."""
    if length < 2:
        raise ConfigurationError("line topology needs at least 2 nodes")
    topo = Topology(f"line-{length}")
    for i in range(length):
        topo.add_node(f"r{i}")
    for i in range(length - 1):
        topo.add_link(f"r{i}", f"r{i + 1}", **link_kwargs)
    return topo


def triangle_with_hosts() -> Topology:
    """Three routers in a triangle, one host behind each.

    The smallest topology on which Blink's "reroute to a different
    next-hop" decision is meaningful: the prefix behind ``r2`` is
    reachable from ``r0`` directly or via ``r1``.
    """
    topo = Topology("triangle")
    for i in range(3):
        topo.add_node(f"r{i}")
        topo.add_node(f"h{i}", role="host")
        topo.add_link(f"r{i}", f"h{i}", delay_s=0.0005)
    topo.add_link("r0", "r1", delay_s=0.002)
    topo.add_link("r1", "r2", delay_s=0.002)
    topo.add_link("r0", "r2", delay_s=0.001)
    return topo


def random_topology(
    nodes: int,
    edge_probability: float = 0.25,
    seed: Optional[int] = None,
    **link_kwargs: float,
) -> Topology:
    """Connected Erdős–Rényi-style random topology.

    Used by the NetHide benches, which need many medium-sized
    topologies.  Connectivity is guaranteed by first building a random
    spanning tree, then sprinkling extra edges.
    """
    if nodes < 2:
        raise ConfigurationError("random topology needs at least 2 nodes")
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    topo = Topology(f"random-{nodes}")
    names = [f"r{i}" for i in range(nodes)]
    for name in names:
        topo.add_node(name)
    shuffled = names[:]
    rng.shuffle(shuffled)
    for i in range(1, nodes):
        attach_to = shuffled[rng.randrange(i)]
        topo.add_link(shuffled[i], attach_to, **link_kwargs)
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if not topo.has_link(names[i], names[j]) and rng.random() < edge_probability:
                topo.add_link(names[i], names[j], **link_kwargs)
    return topo


def _edge_jitter(seed: int, a: str, b: str) -> float:
    """Deterministic per-link jitter fraction in ``[0, 1)``.

    sha256 over a length-prefixed, order-normalised encoding: the same
    (seed, endpoints) always yields the same fraction, in any process.
    Jittered delays keep independently routed packets off *exactly*
    tying float timestamps, which is what lets the sharded forwarding
    engine promise monolithic-identical delivery records without a
    global tie-break channel.
    """
    lo, hi = sorted((a, b))
    payload = f"jitter|{seed}|{len(lo)}:{lo}|{len(hi)}:{hi}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") / 2.0**64


def fat_tree_topology(
    k: int,
    hosts_per_edge: Optional[int] = None,
    bandwidth_bps: float = 10e9,
    core_delay_s: float = 0.004,
    agg_delay_s: float = 0.002,
    host_delay_s: float = 0.0005,
    delay_jitter: float = 0.25,
    seed: int = 0,
) -> Topology:
    """The standard ``k``-ary fat-tree (Al-Fares et al.): ``k`` pods of
    ``k/2`` aggregation + ``k/2`` edge switches under ``(k/2)^2`` core
    switches — ``5k^2/4`` routers total, ``k^3/4`` hosts by default.

    The internet-scale shape the sharded forwarding engine is fed:
    ``fat_tree_topology(16)`` is a 320-router, 1024-host network and
    ``k`` scales it quadratically from there.  ``hosts_per_edge``
    overrides the per-edge-switch host count (0 = switches only).  Every
    link's propagation delay carries a deterministic per-link jitter of
    up to ``delay_jitter`` of its base (sha256 of the endpoints, not an
    RNG stream) so no two distinct paths sum to exactly tying floats.
    """
    if k < 2 or k % 2:
        raise ConfigurationError(f"fat-tree arity must be even and >= 2, got {k}")
    if delay_jitter < 0 or delay_jitter >= 1:
        raise ConfigurationError("delay_jitter must be in [0, 1)")
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if hosts_per_edge < 0:
        raise ConfigurationError("hosts_per_edge must be >= 0")
    topo = Topology(f"fat-tree-{k}")

    def link(a: str, b: str, base_delay: float) -> None:
        delay = base_delay * (1.0 + delay_jitter * _edge_jitter(seed, a, b))
        topo.add_link(a, b, bandwidth_bps=bandwidth_bps, delay_s=delay)

    cores = [f"core{i}" for i in range(half * half)]
    for core in cores:
        topo.add_node(core)
    for pod in range(k):
        for i in range(half):
            topo.add_node(f"agg{pod}_{i}")
            topo.add_node(f"edge{pod}_{i}")
        for i in range(half):
            # Aggregation switch i of every pod uplinks to core group i.
            for j in range(half):
                link(f"agg{pod}_{i}", cores[i * half + j], core_delay_s)
            for j in range(half):
                link(f"agg{pod}_{i}", f"edge{pod}_{j}", agg_delay_s)
        for i in range(half):
            for h in range(hosts_per_edge):
                host = f"h{pod}_{i}_{h}"
                topo.add_node(host, role="host")
                link(f"edge{pod}_{i}", host, host_delay_s)
    return topo


def scaled_random_topology(
    nodes: int,
    extra_links_per_node: int = 2,
    seed: Optional[int] = None,
    bandwidth_bps: float = 10e9,
    base_delay_s: float = 0.002,
    delay_jitter: float = 0.5,
) -> Topology:
    """Connected random topology in ``O(nodes * degree)`` — the scaled
    generator path for 1k+ router networks.

    :func:`random_topology` draws an ``O(n^2)`` coin per node pair,
    which is fine for NetHide's medium benches but not for
    internet-scale inputs.  This builds the same random-spanning-tree
    backbone, then adds ``extra_links_per_node`` random chords per
    node, skipping duplicates — linear-time, average degree about
    ``2 * (1 + extra_links_per_node)``.  Link delays carry the
    deterministic sha256 per-link jitter (see :func:`fat_tree_topology`)
    so distinct multi-hop paths land on distinct float timestamps.
    """
    if nodes < 2:
        raise ConfigurationError("scaled random topology needs at least 2 nodes")
    if extra_links_per_node < 0:
        raise ConfigurationError("extra_links_per_node must be >= 0")
    if delay_jitter < 0 or delay_jitter >= 1:
        raise ConfigurationError("delay_jitter must be in [0, 1)")
    rng = random.Random(seed)
    jitter_seed = seed if seed is not None else 0
    topo = Topology(f"scaled-random-{nodes}")
    names = [f"r{i}" for i in range(nodes)]
    for name in names:
        topo.add_node(name)

    def link(a: str, b: str) -> None:
        delay = base_delay_s * (1.0 + delay_jitter * _edge_jitter(jitter_seed, a, b))
        topo.add_link(a, b, bandwidth_bps=bandwidth_bps, delay_s=delay)

    shuffled = names[:]
    rng.shuffle(shuffled)
    for i in range(1, nodes):
        link(shuffled[i], shuffled[rng.randrange(i)])
    for i in range(nodes):
        for _ in range(extra_links_per_node):
            j = rng.randrange(nodes)
            if j != i and not topo.has_link(names[i], names[j]):
                link(names[i], names[j])
    return topo


def clustered_random_topology(
    clusters: int,
    cluster_nodes: int,
    extra_links_per_node: int = 2,
    backbone_links: int = 1,
    seed: Optional[int] = None,
    bandwidth_bps: float = 10e9,
    intra_delay_s: float = 0.002,
    backbone_delay_s: "float | Sequence[float]" = 0.030,
    delay_jitter: float = 0.5,
) -> Topology:
    """Islands and backbone: dense random clusters on a sparse
    high-latency ring — the canonical sparse-cut input for conservative
    parallel simulation.

    Each cluster is a :func:`scaled_random_topology`-style region
    (spanning tree plus ``extra_links_per_node`` chords, ~2 ms links);
    adjacent clusters are joined by ``backbone_links`` long-haul links
    (~30 ms).  Cutting on cluster boundaries therefore yields a
    lookahead an order of magnitude above any internal link, and
    shortest paths between same-cluster endpoints never leave the
    cluster — cross-cut traffic is exactly the flows whose endpoints
    live in different clusters.  Node ``c<r>n<i>`` is node ``i`` of
    cluster ``r``; nodes ``c<r>n0..`` (one per backbone link) are the
    gateways.  Delays carry the deterministic per-link sha256 jitter
    (see :func:`fat_tree_topology`).

    ``backbone_delay_s`` may be a sequence — ring segment ``r`` (the
    links from cluster ``r`` to ``r+1``) then uses
    ``backbone_delay_s[r % len]``, giving a heterogeneous cut whose
    per-shard outgoing lookaheads differ: the input that separates the
    adaptive-window synchroniser from a fixed global window.
    """
    if clusters < 1:
        raise ConfigurationError("need at least one cluster")
    if cluster_nodes < 2:
        raise ConfigurationError("clusters need at least 2 nodes")
    if extra_links_per_node < 0:
        raise ConfigurationError("extra_links_per_node must be >= 0")
    if not 0 < backbone_links <= cluster_nodes:
        raise ConfigurationError(
            f"backbone_links must be in [1, {cluster_nodes}], got {backbone_links}"
        )
    if delay_jitter < 0 or delay_jitter >= 1:
        raise ConfigurationError("delay_jitter must be in [0, 1)")
    backbone_delays = (
        list(backbone_delay_s)
        if isinstance(backbone_delay_s, (list, tuple))
        else [float(backbone_delay_s)]
    )
    if any(d <= intra_delay_s * (1 + delay_jitter) for d in backbone_delays):
        raise ConfigurationError(
            "backbone delays must exceed the jittered intra-cluster delay "
            "(otherwise the cut is not the slowest place in the graph)"
        )
    rng = random.Random(seed)
    jitter_seed = seed if seed is not None else 0
    topo = Topology(f"clustered-random-{clusters}x{cluster_nodes}")

    def link(a: str, b: str, base_delay: float) -> None:
        delay = base_delay * (1.0 + delay_jitter * _edge_jitter(jitter_seed, a, b))
        topo.add_link(a, b, bandwidth_bps=bandwidth_bps, delay_s=delay)

    for region in range(clusters):
        names = [f"c{region}n{i}" for i in range(cluster_nodes)]
        for name in names:
            topo.add_node(name)
        shuffled = names[:]
        rng.shuffle(shuffled)
        for i in range(1, cluster_nodes):
            link(shuffled[i], shuffled[rng.randrange(i)], intra_delay_s)
        for i in range(cluster_nodes):
            for _ in range(extra_links_per_node):
                j = rng.randrange(cluster_nodes)
                if j != i and not topo.has_link(names[i], names[j]):
                    link(names[i], names[j], intra_delay_s)
    if clusters > 1:
        for region in range(clusters if clusters > 2 else 1):
            peer = (region + 1) % clusters
            delay = backbone_delays[region % len(backbone_delays)]
            for b in range(backbone_links):
                link(f"c{region}n{b}", f"c{peer}n{b}", delay)
    return topo


def cluster_assignment(topology: Topology, shards: int) -> Dict[str, int]:
    """Shard assignment along :func:`clustered_random_topology` seams.

    Maps cluster ``r`` onto shard ``r % shards`` — with ``shards`` equal
    to (or dividing) the cluster count, the only cut links are the
    backbone, so the partition's lookahead is the backbone delay.  The
    explicit-assignment companion to :func:`partition_nodes`, whose
    digest-seeded growth cannot promise two region seeds never land in
    the same island.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    assignment = {}
    for node in topology.nodes():
        if not node.startswith("c") or "n" not in node:
            raise ConfigurationError(
                f"node {node!r} does not follow the c<cluster>n<i> scheme"
            )
        assignment[node] = int(node[1:].split("n", 1)[0]) % shards
    return assignment


# -- sharding ---------------------------------------------------------


def _node_digest(seed: int, node: str) -> int:
    """Stable 64-bit score for one node: tie-breaks and seed picking."""
    payload = f"partition|{seed}|{len(node)}:{node}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def partition_nodes(
    topology: Topology, shards: int, seed: int = 0
) -> Dict[str, int]:
    """Deterministically assign every node to one of ``shards`` shards.

    A min-cut-ish greedy over link latencies: ``shards`` region seeds
    are chosen by sha256 score, then regions grow by repeatedly
    absorbing the unassigned neighbour reachable over the
    *lowest-latency* frontier edge (ties broken by the node digest,
    then the node name).  Low-delay links therefore tend to stay
    internal to a shard, which maximises the conservative lookahead the
    cross-shard synchroniser gets from the cut — cut links' latency is
    the safe horizon.  Regions are capped at ``ceil(n / shards)`` so no
    shard can swallow the graph.

    The assignment is a pure function of ``(topology, shards, seed)``:
    no RNG stream, no dict-order dependence.  Disconnected nodes (or
    components no region seed landed in) are distributed round-robin
    over the smallest regions, in digest order.

    A weight-aware rebalance pass runs after the greedy growth: regions
    are re-weighed by link endpoints (``degree + 1`` per node, so the
    simulation work a shard owns — links are where events happen — is
    what gets balanced, with a node-count tie-nudge), and nodes migrate
    from the heaviest to the lightest region while a move strictly
    shrinks the imbalance.  Without it, hub-heavy graphs could land
    >60% of all link endpoints on one shard even though node *counts*
    were balanced — the shard owning the hub became the critical path
    and the multi-core speedup evaporated.
    """
    nodes = topology.nodes()
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards > len(nodes):
        raise ConfigurationError(
            f"cannot split {len(nodes)} node(s) into {shards} shards"
        )
    if shards == 1:
        return {node: 0 for node in nodes}

    scored = sorted(nodes, key=lambda n: (_node_digest(seed, n), n))
    assignment: Dict[str, int] = {}
    sizes = [0] * shards
    cap = -(-len(nodes) // shards)  # ceil
    frontier: List[Tuple[float, int, str, str, int]] = []

    def absorb(node: str, region: int) -> None:
        assignment[node] = region
        sizes[region] += 1
        for neighbor in topology.neighbors(node):
            if neighbor not in assignment:
                delay = topology.link_properties(node, neighbor).delay_s
                heapq.heappush(
                    frontier,
                    (delay, _node_digest(seed, neighbor), neighbor, node, region),
                )

    for region, node in enumerate(scored[:shards]):
        absorb(node, region)

    while frontier:
        _, _, node, _, region = heapq.heappop(frontier)
        if node in assignment or sizes[region] >= cap:
            continue
        absorb(node, region)

    # Leftovers: unreachable from any seeded region, or only reachable
    # through full regions.  Pack them onto the smallest shards.
    for node in scored:
        if node not in assignment:
            region = min(range(shards), key=lambda r: (sizes[r], r))
            assignment[node] = region
            sizes[region] += 1
    _rebalance_by_weight(topology, assignment, shards, sizes, cap, seed)
    return assignment


def _partition_node_weight(topology: Topology, node: str) -> int:
    """Balance weight of one node: its link endpoints plus itself."""
    return topology.degree(node) + 1


def _rebalance_by_weight(
    topology: Topology,
    assignment: Dict[str, int],
    shards: int,
    sizes: List[int],
    cap: int,
    seed: int,
) -> None:
    """Migrate nodes from the heaviest to the lightest region in place.

    A move is legal when the source keeps at least one node, the target
    stays under the size cap, and the node's weight ``w`` is strictly
    below the current heaviest-lightest gap (so the squared-weight
    potential drops by ``2*w*(gap - w) > 0`` — guaranteed termination).
    Among legal candidates the one closing the most gap wins, digest
    then name breaking ties, keeping the pass a pure function of
    ``(topology, shards, seed)`` like the greedy phase it follows.
    """
    if shards < 2:
        return
    weights = [0] * shards
    members: List[List[str]] = [[] for _ in range(shards)]
    for node in sorted(assignment, key=lambda n: (_node_digest(seed, n), n)):
        region = assignment[node]
        weights[region] += _partition_node_weight(topology, node)
        members[region].append(node)

    # Potential strictly decreases by >= 2 per move, so this converges;
    # the explicit ceiling is a defensive bound, not a tuning knob.
    for _ in range(4 * len(assignment) + 8):
        heavy = max(range(shards), key=lambda r: (weights[r], -r))
        open_regions = [r for r in range(shards) if sizes[r] < cap and r != heavy]
        if not open_regions or sizes[heavy] <= 1:
            return
        light = min(open_regions, key=lambda r: (weights[r], r))
        gap = weights[heavy] - weights[light]
        if gap <= 1:
            return
        best: Optional[Tuple[int, int, str]] = None
        for node in members[heavy]:
            w = _partition_node_weight(topology, node)
            if not 0 < w < gap:
                continue
            key = (w * (gap - w), -_node_digest(seed, node), node)
            if best is None or key > best:
                best = key
                best_node = node
                best_w = w
        if best is None:
            return
        members[heavy].remove(best_node)
        members[light].append(best_node)
        assignment[best_node] = light
        sizes[heavy] -= 1
        sizes[light] += 1
        weights[heavy] -= best_w
        weights[light] += best_w


def partition_weights(
    topology: Topology, assignment: Dict[str, int]
) -> List[int]:
    """Per-shard balance weight (sum of ``degree + 1`` over members) —
    the quantity :func:`partition_nodes`'s rebalance pass equalises."""
    shards = max(assignment.values()) + 1 if assignment else 0
    weights = [0] * shards
    for node, region in assignment.items():
        weights[region] += _partition_node_weight(topology, node)
    return weights


def partition_cut_edges(
    topology: Topology, assignment: Dict[str, int]
) -> List[Tuple[str, str]]:
    """The links crossing shard boundaries under ``assignment``."""
    return [
        (a, b)
        for a, b in topology.links()
        if assignment[a] != assignment[b]
    ]


def partition_lookahead(
    topology: Topology, assignment: Dict[str, int]
) -> Optional[float]:
    """Minimum propagation delay over the cut — the safe sync horizon.

    None when nothing is cut (single shard or disconnected shards): the
    shards never exchange packets, so any window width is safe.
    """
    cut = partition_cut_edges(topology, assignment)
    if not cut:
        return None
    return min(topology.link_properties(a, b).delay_s for a, b in cut)


def partition_out_lookaheads(
    topology: Topology, assignment: Dict[str, int]
) -> Dict[int, float]:
    """Per-shard *outgoing* lookahead: the minimum propagation delay
    over cut links leaving each shard.

    The adaptive-window synchroniser's safety bound: a shard whose next
    event fires no earlier than ``b`` cannot land a packet on any other
    shard before ``b + out_lookahead[shard]``, so a barrier at
    ``min over shards`` of that sum is provably causal even when it
    exceeds the fixed global lookahead.  Shards with no outgoing cut
    links are absent from the map (they can never perturb a neighbour).
    """
    out: Dict[int, float] = {}
    for a, b in partition_cut_edges(topology, assignment):
        delay = topology.link_properties(a, b).delay_s
        for src in (a, b):  # undirected link = one boundary link each way
            shard = assignment[src]
            if shard not in out or delay < out[shard]:
                out[shard] = delay
    return out


def star_topology(
    sources: int,
    hub: str = "mirror",
    delay_s: float = 0.001,
    bandwidth_bps: float = 10e9,
) -> Topology:
    """``sources`` leaf nodes, each linked to one hub.

    The fan-in shape the sharded packet-level driver partitions: flows
    hash onto the leaves, the leaves split across shards, and the hub
    is the coordinator-side merge point.
    """
    if sources < 1:
        raise ConfigurationError("star topology needs at least one source")
    topo = Topology(f"star-{sources}")
    topo.add_node(hub)
    for i in range(sources):
        name = f"src{i}"
        topo.add_node(name)
        topo.add_link(name, hub, bandwidth_bps=bandwidth_bps, delay_s=delay_s)
    return topo


def dumbbell_topology(
    hosts_per_side: int,
    bottleneck_bps: float = 10e6,
    bottleneck_delay_s: float = 0.02,
    edge_bps: float = 1e9,
) -> Topology:
    """Classic dumbbell: N senders, bottleneck link, N receivers.

    The PCC experiments run on this shape — senders share a bottleneck
    whose loss/throughput feed PCC's utility function.
    """
    if hosts_per_side < 1:
        raise ConfigurationError("need at least one host per side")
    topo = Topology(f"dumbbell-{hosts_per_side}")
    topo.add_node("rl")
    topo.add_node("rr")
    topo.add_link("rl", "rr", bandwidth_bps=bottleneck_bps, delay_s=bottleneck_delay_s)
    for i in range(hosts_per_side):
        topo.add_node(f"s{i}", role="host")
        topo.add_node(f"d{i}", role="host")
        topo.add_link(f"s{i}", "rl", bandwidth_bps=edge_bps, delay_s=0.001)
        topo.add_link(f"d{i}", "rr", bandwidth_bps=edge_bps, delay_s=0.001)
    return topo
