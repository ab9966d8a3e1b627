"""Unit tests for repro.topology.graph."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.topology import generators, zoo
from repro.topology.graph import Edge, Topology


class TestEdge:
    def test_valid_edge(self):
        edge = Edge(0, 1, 10.0)
        assert edge.src == 0
        assert edge.dst == 1
        assert edge.capacity == 10.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Edge(2, 2, 1.0)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            Edge(0, 1, 0.0)
        with pytest.raises(ValueError, match="capacity"):
            Edge(0, 1, -3.0)


class TestTopologyConstruction:
    def test_basic_construction(self):
        topo = Topology(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)], name="tri")
        assert topo.num_nodes == 3
        assert topo.num_edges == 3
        assert topo.name == "tri"

    def test_accepts_edge_objects(self):
        topo = Topology(2, [Edge(0, 1, 4.0)])
        assert topo.capacity(0, 1) == 4.0

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)])

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError, match="outside"):
            Topology(2, [(0, 5, 1.0)])

    def test_rejects_empty_edge_list(self):
        with pytest.raises(ValueError, match="at least one edge"):
            Topology(3, [])

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="two nodes"):
            Topology(1, [(0, 0, 1.0)])

    def test_opposite_directions_are_distinct_edges(self):
        topo = Topology(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert topo.capacity(0, 1) == 1.0
        assert topo.capacity(1, 0) == 2.0


class TestTopologyAccessors:
    @pytest.fixture()
    def topo(self):
        return Topology(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)])

    def test_edge_index_round_trip(self, topo):
        for i, edge in enumerate(topo.edges):
            assert topo.edge_index(edge.src, edge.dst) == i

    def test_edge_index_missing_raises(self, topo):
        with pytest.raises(KeyError):
            topo.edge_index(0, 2)

    def test_has_edge(self, topo):
        assert topo.has_edge(0, 1)
        assert not topo.has_edge(0, 2)

    def test_capacities_vector_matches_edges(self, topo):
        np.testing.assert_allclose(topo.capacities, [1.0, 1.0, 2.0, 2.0])

    def test_capacities_returns_copy(self, topo):
        caps = topo.capacities
        caps[0] = 99.0
        assert topo.capacities[0] == 1.0

    def test_sd_pairs_excludes_diagonal(self, topo):
        pairs = topo.sd_pairs()
        assert len(pairs) == topo.num_sd_pairs == 6
        assert (0, 0) not in pairs
        assert pairs == sorted(pairs)  # row-major order

    def test_total_capacity(self, topo):
        assert topo.total_capacity() == pytest.approx(6.0)

    def test_adjacency_matrix(self, topo):
        adj = topo.adjacency_matrix()
        assert adj[0, 1] == 1.0
        assert adj[1, 2] == 2.0
        assert adj[0, 2] == 0.0


class TestTopologyTransforms:
    @pytest.fixture()
    def topo(self):
        return Topology(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])

    def test_reversed_copy(self, topo):
        rev = topo.reversed_copy()
        assert rev.has_edge(1, 0)
        assert rev.capacity(1, 0) == 1.0
        assert rev.num_edges == topo.num_edges

    def test_with_scaled_capacities(self, topo):
        scaled = topo.with_scaled_capacities(2.0)
        np.testing.assert_allclose(scaled.capacities, topo.capacities * 2.0)

    def test_scale_factor_must_be_positive(self, topo):
        with pytest.raises(ValueError):
            topo.with_scaled_capacities(0.0)

    def test_without_edges(self, topo):
        smaller = topo.without_edges({(0, 1)})
        assert smaller.num_edges == 2
        assert not smaller.has_edge(0, 1)

    def test_to_networkx_preserves_capacity(self, topo):
        graph = topo.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3
        assert graph[1][2]["capacity"] == 2.0

    def test_strongly_connected_detection(self, topo):
        assert topo.is_strongly_connected()
        not_connected = Topology(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert not not_connected.is_strongly_connected()

    @pytest.mark.parametrize(
        "topology",
        [
            generators.line(5),
            generators.star(4),
            generators.random_regular(20, 3, seed=1),
            zoo.geant(),
            generators.line(5).without_edges({(2, 3)}),
            generators.star(4).without_edges({(0, 2), (2, 0)}),
            Topology(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]),
            Topology(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]),
            Topology(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)]),
        ],
        ids=lambda topology: f"{topology.name}-{topology.num_edges}",
    )
    def test_strong_connectivity_agrees_with_networkx(self, topology):
        expected = nx.is_strongly_connected(topology.to_networkx())
        assert topology.is_strongly_connected() is expected

    def test_equality_and_hash(self, topo):
        same = Topology(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        different = Topology(3, [(0, 1, 9.0), (1, 2, 2.0), (2, 0, 3.0)])
        assert topo == same
        assert hash(topo) == hash(same)
        assert topo != different
