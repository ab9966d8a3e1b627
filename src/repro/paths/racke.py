"""SMORE-style oblivious path selection (Racke-inspired).

SMORE selects candidate paths with Racke's oblivious routing construction,
which produces capacity-aware, congestion-spreading path sets.  A faithful
Racke/FRT decomposition-tree implementation is substantial and not required
to reproduce the paper's comparison (Figure 6): what matters is that the path
set (i) is capacity aware, (ii) spreads load across diverse links instead of
always taking hop-shortest routes.

This module implements the standard practical approximation used by
re-implementations of SMORE: iterative shortest paths under multiplicative
edge penalties that grow exponentially with the load already assigned to an
edge.  Each SD pair contributes a unit of virtual demand per iteration; after
an edge has been used, its cost increases, so subsequent path choices avoid
it.  The result is a diverse, capacity-aware path set.
"""

from __future__ import annotations

import math

import numpy as np

from repro.paths.path_set import PathSet
from repro.topology.graph import Topology

__all__ = ["racke_path_set"]

#: Base of the exponential load penalty.  Larger values make successive
#: paths for the same pair more disjoint.
_PENALTY_BASE = 8.0


def racke_path_set(
    topology: Topology,
    k: int = 3,
    seed: int = 0,
) -> PathSet:
    """Build a capacity-aware, congestion-spreading path set.

    Args:
        topology: The network topology.
        k: Number of candidate paths per SD pair.
        seed: Seed controlling the SD pair processing order (randomising the
            order avoids systematically favouring low-index pairs).

    Returns:
        A :class:`PathSet` with up to ``k`` distinct paths per SD pair.
    """
    import networkx as nx

    rng = np.random.default_rng(seed)
    graph = topology.to_networkx()
    capacities = {(a, b): data["capacity"] for a, b, data in graph.edges(data=True)}
    load: dict[tuple[int, int], float] = {edge: 0.0 for edge in capacities}

    def edge_cost(a: int, b: int) -> float:
        cap = capacities[(a, b)]
        utilisation = load[(a, b)] / cap
        return (1.0 / cap) * math.pow(_PENALTY_BASE, utilisation)

    pairs = topology.sd_pairs()
    order = rng.permutation(len(pairs))
    paths_by_pair: dict[tuple[int, int], list[list[int]]] = {pair: [] for pair in pairs}

    for round_idx in range(k):
        for pair_pos in order:
            src, dst = pairs[pair_pos]
            for a, b, data in graph.edges(data=True):
                data["cost"] = edge_cost(a, b)
            # Discourage re-using already selected paths for this pair by
            # temporarily inflating their edges.
            chosen_edges = {
                (x, y)
                for path in paths_by_pair[(src, dst)]
                for x, y in zip(path[:-1], path[1:])
            }
            for a, b in chosen_edges:
                graph[a][b]["cost"] *= _PENALTY_BASE
            path = nx.shortest_path(graph, src, dst, weight="cost")
            if path not in paths_by_pair[(src, dst)]:
                paths_by_pair[(src, dst)].append([int(n) for n in path])
            # Account a unit of virtual demand spread over the chosen path.
            for a, b in zip(path[:-1], path[1:]):
                load[(a, b)] += 1.0 / (round_idx + 1)

    return PathSet(topology, paths_by_pair)
