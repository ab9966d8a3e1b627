"""The :class:`PathSet` structure: candidate paths and their incidence matrices.

A TE configuration in the paper splits each source-destination (SD) pair's
demand over a small set of candidate paths.  Appendix D.1 (Function 1) shows
that mapping a configuration to MLU only requires two incidence matrices:

* ``SDtoPath`` (|SD pairs| x |paths|): whether path ``j`` serves SD pair ``i``.
* ``PathToEdge`` (|paths| x |edges|): whether path ``i`` traverses edge ``j``.

:class:`PathSet` stores the candidate paths grouped by SD pair together with
these matrices (as scipy sparse matrices) and the per-path capacities used by
the path-sensitivity metric.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import sparse

from repro.topology.graph import Topology

__all__ = ["PathSet"]


class PathSet:
    """Candidate paths for every SD pair of a topology.

    Args:
        topology: The topology the paths live on.
        paths_by_pair: Mapping ``(s, d) -> list of node paths``, where each
            node path is a sequence of node indices starting at ``s`` and
            ending at ``d``.  Every SD pair of the topology must have at least
            one path.

    Attributes:
        topology: The underlying topology.
        sd_pairs: Ordered SD pairs (row-major, excluding the diagonal).
        paths: Flat tuple of node paths, grouped by SD pair in order.
        path_sd_index: For each path, the index of its SD pair in ``sd_pairs``.
        edge_to_path: ``PathToEdge`` transposed (|edges| x |paths|), kept
            because every MLU computation multiplies by it.
    """

    def __init__(self, topology: Topology, paths_by_pair: dict[tuple[int, int], list[list[int]]]) -> None:
        self.topology = topology
        self.sd_pairs: list[tuple[int, int]] = topology.sd_pairs()
        self._sd_index = {pair: i for i, pair in enumerate(self.sd_pairs)}

        flat_paths: list[tuple[int, ...]] = []
        path_sd_index: list[int] = []
        paths_per_pair: list[list[int]] = [[] for _ in self.sd_pairs]
        for pair_idx, pair in enumerate(self.sd_pairs):
            if pair not in paths_by_pair or not paths_by_pair[pair]:
                raise ValueError(f"SD pair {pair} has no candidate path")
            for node_path in paths_by_pair[pair]:
                validated = self._validate_path(pair, node_path)
                paths_per_pair[pair_idx].append(len(flat_paths))
                flat_paths.append(validated)
                path_sd_index.append(pair_idx)

        self.paths: tuple[tuple[int, ...], ...] = tuple(flat_paths)
        self.path_sd_index = np.array(path_sd_index, dtype=np.int64)
        self._paths_per_pair = [tuple(p) for p in paths_per_pair]

        self._build_matrices()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _validate_path(self, pair: tuple[int, int], node_path) -> tuple[int, ...]:
        nodes = tuple(int(n) for n in node_path)
        if len(nodes) < 2:
            raise ValueError(f"path for {pair} must contain at least two nodes: {nodes}")
        if nodes[0] != pair[0] or nodes[-1] != pair[1]:
            raise ValueError(f"path {nodes} does not connect SD pair {pair}")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path {nodes} contains a loop")
        for a, b in zip(nodes[:-1], nodes[1:]):
            if not self.topology.has_edge(a, b):
                raise ValueError(f"path {nodes} uses a non-existent edge {a}->{b}")
        return nodes

    def _build_matrices(self) -> None:
        num_paths = len(self.paths)
        num_edges = self.topology.num_edges
        num_pairs = len(self.sd_pairs)

        rows, cols = [], []
        path_caps = np.zeros(num_paths, dtype=float)
        for p_idx, nodes in enumerate(self.paths):
            cap = np.inf
            for a, b in zip(nodes[:-1], nodes[1:]):
                e_idx = self.topology.edge_index(a, b)
                rows.append(p_idx)
                cols.append(e_idx)
                cap = min(cap, self.topology.capacity(a, b))
            path_caps[p_idx] = cap
        data = np.ones(len(rows), dtype=float)
        self.path_to_edge = sparse.csr_matrix(
            (data, (rows, cols)), shape=(num_paths, num_edges)
        )
        # A CSC matrix over the same arrays (no copy).
        self.edge_to_path = self.path_to_edge.T
        self.sd_to_path = sparse.csr_matrix(
            (
                np.ones(num_paths, dtype=float),
                (self.path_sd_index, np.arange(num_paths)),
            ),
            shape=(num_pairs, num_paths),
        )
        self.path_capacities = path_caps

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Stable content hash of the path structure.

        Two path sets with the same candidate paths over the same edges and
        capacities share a fingerprint, so it can serve as a cache key (e.g.
        for :class:`~repro.solvers.lp.OptimalMLUCache`) without holding a
        reference to the object itself.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            digest = hashlib.sha1()
            digest.update(np.int64(self.topology.num_nodes).tobytes())
            digest.update(np.ascontiguousarray(self.topology.capacities, dtype=float).tobytes())
            digest.update(self.path_to_edge.indptr.tobytes())
            digest.update(self.path_to_edge.indices.tobytes())
            digest.update(self.path_sd_index.tobytes())
            cached = digest.hexdigest()
            self._fingerprint = cached
        return cached

    @property
    def num_paths(self) -> int:
        """Total number of candidate paths."""
        return len(self.paths)

    @property
    def num_sd_pairs(self) -> int:
        """Number of SD pairs."""
        return len(self.sd_pairs)

    @property
    def max_paths_per_pair(self) -> int:
        """Maximum number of candidate paths for any single SD pair."""
        return max(len(p) for p in self._paths_per_pair)

    def sd_pair_index(self, src: int, dst: int) -> int:
        """Index of the SD pair ``(src, dst)`` in ``sd_pairs`` order."""
        return self._sd_index[(src, dst)]

    def path_indices_for(self, src: int, dst: int) -> tuple[int, ...]:
        """Indices (into ``paths``) of the candidate paths serving ``src -> dst``."""
        return self._paths_per_pair[self.sd_pair_index(src, dst)]

    def paths_for(self, src: int, dst: int) -> list[tuple[int, ...]]:
        """The candidate node paths serving ``src -> dst``."""
        return [self.paths[i] for i in self.path_indices_for(src, dst)]

    def demand_vector(self, demand_matrix: np.ndarray) -> np.ndarray:
        """Flatten a |V| x |V| demand matrix to a vector in SD-pair order."""
        dm = np.asarray(demand_matrix, dtype=float)
        n = self.topology.num_nodes
        if dm.shape != (n, n):
            raise ValueError(f"demand matrix must be {n}x{n}, got {dm.shape}")
        return np.array([dm[s, d] for s, d in self.sd_pairs], dtype=float)

    def demand_per_path(self, demand_vector: np.ndarray) -> np.ndarray:
        """Broadcast a per-SD-pair demand vector onto every path (gather)."""
        dv = np.asarray(demand_vector, dtype=float)
        if dv.shape[-1] != self.num_sd_pairs:
            raise ValueError(
                f"demand vector must have {self.num_sd_pairs} entries, got {dv.shape}"
            )
        return dv[..., self.path_sd_index]

    def restrict_to_working_paths(self, failed_edges: set[tuple[int, int]]) -> np.ndarray:
        """Boolean mask of paths that avoid every failed directed edge.

        One sparse product: a path works when it crosses none of the failed
        edges.  Failed edges the topology does not have are ignored.
        """
        failed = np.zeros(self.topology.num_edges)
        for a, b in failed_edges:
            if self.topology.has_edge(a, b):
                failed[self.topology.edge_index(a, b)] = 1.0
        return (self.path_to_edge @ failed) == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PathSet(topology={self.topology.name!r}, pairs={self.num_sd_pairs}, "
            f"paths={self.num_paths})"
        )
