"""Yen's k-shortest-paths candidate path selection.

The paper precomputes the three shortest paths between every pair of nodes
with Yen's algorithm (Section 5.1).  ``networkx.shortest_simple_paths``
implements Yen's algorithm; this module wraps it for a whole topology and
produces a :class:`~repro.paths.path_set.PathSet`.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx

from repro.paths.path_set import PathSet
from repro.topology.graph import Topology

__all__ = ["build_ksp_path_set"]


def build_ksp_path_set(topology: Topology, k: int = 3) -> PathSet:
    """Build a :class:`PathSet` with up to ``k`` shortest paths per SD pair.

    This is the default candidate-path construction of the paper (Yen's
    algorithm, k = 3), with hop count as the path metric.  Pairs with fewer
    than ``k`` simple paths simply get fewer candidates.
    """
    graph = topology.to_networkx()
    paths_by_pair: dict[tuple[int, int], list[list[int]]] = {}
    for src, dst in topology.sd_pairs():
        generator = nx.shortest_simple_paths(graph, src, dst)
        paths = [list(p) for p in islice(generator, k)]
        if not paths:
            raise nx.NetworkXNoPath(f"no path between {src} and {dst}")
        paths_by_pair[(src, dst)] = paths
    return PathSet(topology, paths_by_pair)
