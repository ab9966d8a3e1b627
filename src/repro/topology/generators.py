"""Topology generators used throughout the paper's evaluation.

The paper evaluates on three classes of topologies:

* WAN topologies (GEANT, UsCarrier, Cogentco) -- sparse, irregular graphs.
* PoD-level data center topologies -- small fully connected direct-connect
  graphs (Meta DB: 4 pods, Meta WEB: 8 pods).
* ToR-level data center topologies -- large random regular graphs
  (direct-connect, as in Jellyfish), plus the 9-ToR pFabric full mesh.

This module also contains the small illustrative topologies used by the
paper's motivating examples (the triangle of Figure 3 and the capacity
mismatch example of Figure 19).
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np

from repro.topology.graph import Topology

__all__ = [
    "triangle",
    "line",
    "star",
    "fully_connected",
    "random_regular",
    "leaf_spine_direct_connect",
    "wan_like",
    "mismatch_example",
]


def triangle(capacity: float = 2.0) -> Topology:
    """The 3-node triangle of Figure 3 with all link capacities equal.

    Nodes are A=0, B=1, C=2 and each undirected link has capacity
    ``capacity`` (2 in the paper's example).
    """
    nodes = 3
    edges = []
    for a in range(nodes):
        for b in range(nodes):
            if a != b:
                edges.append((a, b, capacity))
    return Topology(nodes, edges, name="triangle")


def line(num_nodes: int, capacity: float = 1.0) -> Topology:
    """A bidirectional line topology ``0 - 1 - ... - n-1``."""
    edges = []
    for i in range(num_nodes - 1):
        edges.append((i, i + 1, capacity))
        edges.append((i + 1, i, capacity))
    return Topology(num_nodes, edges, name=f"line{num_nodes}")


def star(num_leaves: int, capacity: float = 1.0) -> Topology:
    """A star with node 0 at the hub and ``num_leaves`` leaves."""
    edges = []
    for leaf in range(1, num_leaves + 1):
        edges.append((0, leaf, capacity))
        edges.append((leaf, 0, capacity))
    return Topology(num_leaves + 1, edges, name=f"star{num_leaves}")


def fully_connected(num_nodes: int, capacity: float = 1.0, name: str | None = None) -> Topology:
    """A full mesh direct-connect topology (PoD-level Meta clusters, pFabric).

    Every ordered pair of distinct nodes is connected by a directed edge of
    the given capacity.
    """
    edges = [
        (a, b, capacity)
        for a in range(num_nodes)
        for b in range(num_nodes)
        if a != b
    ]
    return Topology(num_nodes, edges, name=name or f"mesh{num_nodes}")


def _random_regular_edges(degree: int, num_nodes: int, rng: random.Random) -> set[tuple[int, int]]:
    """Stub matching (Steger and Wormald): a ``degree``-regular edge set.

    Every node gets ``degree`` stubs; the stubs are shuffled and paired off,
    pairs that would be a self-loop or a parallel edge go back into the pool,
    and the pool is reshuffled until it is empty -- or can no longer be
    paired, in which case the whole attempt starts over.  A port of
    networkx 3.6.1's ``random_regular_graph``: the same draws from ``rng``,
    and a set built in the same order, so it iterates in the same order.
    """

    def suitable(edges: set[tuple[int, int]], potential_edges: dict[int, int]) -> bool:
        # Whether two of the nodes left with stubs can still be joined.
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation() -> set[tuple[int, int]] | None:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(num_nodes)) * degree
        while stubs:
            potential_edges: dict[int, int] = defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node for node, potential in potential_edges.items() for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return edges


def random_regular(
    num_nodes: int,
    degree: int,
    capacity: float = 1.0,
    seed: int = 0,
    name: str | None = None,
) -> Topology:
    """A random regular direct-connect graph (ToR-level topology, Jellyfish-style).

    The paper uses random regular graphs for ToR-level Meta topologies
    (Table 1).  The generated graph is undirected-regular; each undirected
    edge becomes two directed edges of equal capacity.  The generator retries
    with seeds ``seed + 1``, ``seed + 2``, ... until it produces a connected
    graph.

    Edges come out in the order networkx 3.6.1 lists them for
    ``nx.random_regular_graph(degree, num_nodes, seed)``: by lower endpoint,
    then in the order each node met its neighbours while the edge set was
    inserted -- so the topology, and every path set over it, is the one
    networkx builds.
    """
    if degree >= num_nodes:
        raise ValueError("degree must be smaller than the number of nodes")
    if (degree * num_nodes) % 2 != 0:
        raise ValueError("degree * num_nodes must be even for a regular graph")
    for rng_seed in range(seed, seed + 100):
        neighbours: list[list[int]] = [[] for _ in range(num_nodes)]
        for a, b in _random_regular_edges(degree, num_nodes, random.Random(rng_seed)):
            neighbours[a].append(b)
            neighbours[b].append(a)
        edges = []
        for a in range(num_nodes):
            for b in neighbours[a]:
                if b > a:
                    edges.append((a, b, capacity))
                    edges.append((b, a, capacity))
        topology = Topology(num_nodes, edges, name=name or f"rrg{num_nodes}d{degree}")
        if topology.is_strongly_connected():
            return topology
    raise RuntimeError(  # pragma: no cover - astronomically unlikely for sane parameters
        "failed to generate a connected random regular graph"
    )


def leaf_spine_direct_connect(num_tors: int = 9, capacity: float = 1.0) -> Topology:
    """The pFabric topology converted to a direct-connect full mesh.

    The paper converts pFabric's 9-ToR leaf-spine fabric into a fully
    connected direct-connect network because TE is rarely used in leaf-spine
    fabrics (Section 5.1, Table 1: 9 nodes, 72 directed edges).
    """
    return fully_connected(num_tors, capacity=capacity, name=f"pfabric{num_tors}")


def wan_like(
    num_nodes: int,
    num_undirected_edges: int,
    seed: int = 0,
    capacity_levels: tuple[float, ...] = (10.0, 40.0, 100.0),
    name: str | None = None,
) -> Topology:
    """A synthetic WAN-like topology with a target node/edge count.

    Construction: start from a random spanning ring (guaranteeing strong
    connectivity), then add random chords preferring geographically close
    nodes (nodes are embedded on a unit square), which mimics the sparse,
    locally clustered structure of Topology-Zoo carrier backbones.  Each
    undirected link gets a capacity drawn from ``capacity_levels`` (mimicking
    the mix of OC-48/OC-192-style link tiers in carrier networks) and is
    represented by two directed edges.

    Args:
        num_nodes: Number of routers.
        num_undirected_edges: Target number of undirected links (must be at
            least ``num_nodes``).
        seed: RNG seed.
        capacity_levels: Candidate link capacities.
        name: Optional topology name.
    """
    if num_undirected_edges < num_nodes:
        raise ValueError("a connected WAN needs at least num_nodes undirected links")
    rng = np.random.default_rng(seed)
    coords = rng.random((num_nodes, 2))
    order = list(rng.permutation(num_nodes))
    undirected: set[tuple[int, int]] = set()

    def norm(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    for i in range(num_nodes):
        a, b = order[i], order[(i + 1) % num_nodes]
        undirected.add(norm(a, b))

    # Candidate chords sorted by Euclidean distance: carriers mostly connect
    # nearby cities, which yields realistic sparse clustered graphs.
    candidates = []
    for a in range(num_nodes):
        for b in range(a + 1, num_nodes):
            if norm(a, b) not in undirected:
                dist = float(np.linalg.norm(coords[a] - coords[b]))
                candidates.append((dist, a, b))
    candidates.sort()
    # Take close pairs with probability decaying in rank so the graph is not
    # a pure geometric graph (real carriers include a few long-haul links).
    idx = 0
    while len(undirected) < num_undirected_edges and idx < len(candidates):
        _, a, b = candidates[idx]
        idx += 1
        if rng.random() < 0.7:
            undirected.add(norm(a, b))
    # If probability-skipping left us short, fill deterministically.
    idx = 0
    while len(undirected) < num_undirected_edges and idx < len(candidates):
        _, a, b = candidates[idx]
        undirected.add(norm(a, b))
        idx += 1

    edges = []
    for a, b in sorted(undirected):
        cap = float(rng.choice(capacity_levels))
        edges.append((a, b, cap))
        edges.append((b, a, cap))
    topo = Topology(num_nodes, edges, name=name or f"wan{num_nodes}")
    if not topo.is_strongly_connected():  # pragma: no cover - ring guarantees this
        raise RuntimeError("generated WAN topology is not strongly connected")
    return topo


def mismatch_example() -> Topology:
    """The 4-node example of Figure 19 (Appendix G.1).

    Nodes: s=0, r=1, t1=2, t2=3.  Edge capacities: s->t1 = 50, s->t2 = 100,
    s->r = 50, r->t1 = 50, r->t2 = 100 (and the reverse directions), so that
    traffic towards t2 rides higher-capacity paths and mispredicting it harms
    MLU less than mispredicting traffic towards t1.
    """
    caps = {
        (0, 2): 50.0,
        (0, 3): 100.0,
        (0, 1): 50.0,
        (1, 2): 50.0,
        (1, 3): 100.0,
    }
    edges = []
    for (a, b), cap in caps.items():
        edges.append((a, b, cap))
        edges.append((b, a, cap))
    return Topology(4, edges, name="mismatch-example")
