"""Capacitated directed network topology.

The :class:`Topology` class is the foundation of every other subsystem.  It
stores a directed multigraph-free edge list with per-edge capacities and
provides constant-time lookup of edge indices.  The graph algorithms the run
path needs work on that edge list directly: Yen's paths
(:mod:`repro.paths.ksp`) on successor lists built from it, strong
connectivity on its adjacency matrix (:mod:`scipy.sparse.csgraph`).
:meth:`Topology.to_networkx` is for the algorithms that do not -- Racke-style
paths (:mod:`repro.paths.racke`) -- and for tests that check the ports
against networkx; it imports networkx only when called, so importing this
module does not.

Edges are directed.  Undirected physical links are represented by two directed
edges with equal capacity, which is the convention used by the paper (GEANT's
74 directed edges correspond to 37 physical links).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Topology", "Edge"]


@dataclass(frozen=True)
class Edge:
    """A directed capacitated edge.

    Attributes:
        src: Source node index.
        dst: Destination node index.
        capacity: Edge capacity in arbitrary traffic units (must be > 0).
    """

    src: int
    dst: int
    capacity: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop edge {self.src}->{self.dst} is not allowed")
        if self.capacity <= 0:
            raise ValueError(f"edge capacity must be positive, got {self.capacity}")


class Topology:
    """A directed capacitated network topology.

    Args:
        num_nodes: Number of nodes, labelled ``0 .. num_nodes - 1``.
        edges: Iterable of ``(src, dst, capacity)`` triples or :class:`Edge`
            objects.  Duplicate ``(src, dst)`` pairs are rejected.
        name: Optional human readable name (e.g. ``"GEANT"``).

    Attributes:
        num_nodes: Number of nodes.
        num_edges: Number of directed edges.
        name: Topology name.
    """

    def __init__(self, num_nodes: int, edges, name: str = "topology") -> None:
        if num_nodes < 2:
            raise ValueError("a topology needs at least two nodes")
        self.num_nodes = int(num_nodes)
        self.name = name
        edge_objs: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for item in edges:
            edge = item if isinstance(item, Edge) else Edge(int(item[0]), int(item[1]), float(item[2]))
            if not (0 <= edge.src < num_nodes and 0 <= edge.dst < num_nodes):
                raise ValueError(f"edge {edge} references a node outside [0, {num_nodes})")
            key = (edge.src, edge.dst)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            edge_objs.append(edge)
        if not edge_objs:
            raise ValueError("a topology needs at least one edge")
        self._edges: tuple[Edge, ...] = tuple(edge_objs)
        self._edge_index: dict[tuple[int, int], int] = {
            (e.src, e.dst): i for i, e in enumerate(self._edges)
        }
        self._capacities = np.array([e.capacity for e in self._edges], dtype=float)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in index order."""
        return self._edges

    @property
    def capacities(self) -> np.ndarray:
        """Vector of edge capacities, indexed by edge index (read-only copy)."""
        return self._capacities.copy()

    def edge_index(self, src: int, dst: int) -> int:
        """Return the index of the directed edge ``src -> dst``.

        Raises:
            KeyError: If the edge does not exist.
        """
        return self._edge_index[(src, dst)]

    def has_edge(self, src: int, dst: int) -> bool:
        """Return True if the directed edge ``src -> dst`` exists."""
        return (src, dst) in self._edge_index

    def capacity(self, src: int, dst: int) -> float:
        """Capacity of the directed edge ``src -> dst``."""
        return self._edges[self.edge_index(src, dst)].capacity

    def sd_pairs(self) -> list[tuple[int, int]]:
        """All ordered source-destination pairs (s != d), row-major order."""
        return [
            (s, d)
            for s in range(self.num_nodes)
            for d in range(self.num_nodes)
            if s != d
        ]

    @property
    def num_sd_pairs(self) -> int:
        """Number of ordered source-destination pairs."""
        return self.num_nodes * (self.num_nodes - 1)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self, weight: str = "weight") -> nx.DiGraph:
        """Convert to a :class:`networkx.DiGraph`.

        Each edge gets attributes ``capacity`` and ``weight`` where weight
        defaults to 1 (hop count) and can be overridden by path algorithms.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_nodes))
        for edge in self._edges:
            graph.add_edge(edge.src, edge.dst, capacity=edge.capacity, **{weight: 1.0})
        return graph

    def reversed_copy(self) -> "Topology":
        """Return a topology with every edge direction reversed."""
        return Topology(
            self.num_nodes,
            [(e.dst, e.src, e.capacity) for e in self._edges],
            name=f"{self.name}-reversed",
        )

    def with_scaled_capacities(self, factor: float) -> "Topology":
        """Return a copy with all capacities multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("capacity scale factor must be positive")
        return Topology(
            self.num_nodes,
            [(e.src, e.dst, e.capacity * factor) for e in self._edges],
            name=self.name,
        )

    def without_edges(self, failed: set[tuple[int, int]] | list[tuple[int, int]]) -> "Topology":
        """Return a copy with the given directed edges removed.

        Used by failure experiments.  Raises if removing the edges would leave
        no edges at all.
        """
        failed_set = set(failed)
        remaining = [e for e in self._edges if (e.src, e.dst) not in failed_set]
        return Topology(self.num_nodes, remaining, name=f"{self.name}-failed")

    # ------------------------------------------------------------------ #
    # Properties of the graph
    # ------------------------------------------------------------------ #
    def is_strongly_connected(self) -> bool:
        """Return True if every node can reach every other node."""
        from scipy.sparse.csgraph import connected_components

        components, _ = connected_components(
            self.adjacency_matrix(), directed=True, connection="strong"
        )
        return int(components) == 1

    def adjacency_matrix(self) -> np.ndarray:
        """Dense capacity adjacency matrix (0 where no edge)."""
        mat = np.zeros((self.num_nodes, self.num_nodes), dtype=float)
        for edge in self._edges:
            mat[edge.src, edge.dst] = edge.capacity
        return mat

    def total_capacity(self) -> float:
        """Sum of all edge capacities."""
        return float(self._capacities.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and len(self._edges) == len(other._edges)
            and all(a == b for a, b in zip(self._edges, other._edges))
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self._edges))
