"""Unit tests for repro.topology.generators and repro.topology.zoo."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.topology import generators, zoo


class TestSmallGenerators:
    def test_triangle_shape(self):
        topo = generators.triangle(capacity=2.0)
        assert topo.num_nodes == 3
        assert topo.num_edges == 6
        assert all(e.capacity == 2.0 for e in topo.edges)

    def test_line_topology(self):
        topo = generators.line(4, capacity=5.0)
        assert topo.num_nodes == 4
        assert topo.num_edges == 6  # 3 links x 2 directions
        assert topo.has_edge(1, 2) and topo.has_edge(2, 1)
        assert not topo.has_edge(0, 2)

    def test_star_topology(self):
        topo = generators.star(5)
        assert topo.num_nodes == 6
        assert topo.num_edges == 10
        assert all(topo.has_edge(0, leaf) for leaf in range(1, 6))

    def test_mismatch_example_capacities(self):
        topo = generators.mismatch_example()
        # Figure 19: the path towards t2 (node 3) has double the capacity.
        assert topo.capacity(0, 3) == 2 * topo.capacity(0, 2)
        assert topo.is_strongly_connected()


class TestFullyConnected:
    def test_counts(self):
        topo = generators.fully_connected(6, capacity=3.0)
        assert topo.num_nodes == 6
        assert topo.num_edges == 30
        assert topo.is_strongly_connected()

    def test_pfabric_matches_table1(self):
        topo = generators.leaf_spine_direct_connect(9)
        assert topo.num_nodes == 9
        assert topo.num_edges == 72  # Table 1


class TestRandomRegular:
    def test_degree_and_connectivity(self):
        topo = generators.random_regular(12, 4, seed=0)
        assert topo.num_nodes == 12
        assert topo.num_edges == 12 * 4  # each undirected edge counted twice
        assert topo.is_strongly_connected()

    def test_deterministic_for_same_seed(self):
        a = generators.random_regular(10, 3, seed=5)
        b = generators.random_regular(10, 3, seed=5)
        assert a == b

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            generators.random_regular(5, 5)
        with pytest.raises(ValueError):
            generators.random_regular(5, 3)  # odd product
        with pytest.raises(ValueError):
            generators.random_regular(5, 0)

    @pytest.mark.parametrize(
        "num_nodes, degree",
        [(2, 1), (8, 3), (9, 2), (12, 4), (20, 3), (24, 6), (32, 8), (155, 46), (324, 97)],
    )
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_edges_equal_the_networkx_loop(self, num_nodes, degree, seed):
        """The loop ``random_regular`` ran before its port, edge for edge."""
        rng_seed = seed
        graph = nx.random_regular_graph(degree, num_nodes, seed=rng_seed)
        while not nx.is_connected(graph):
            rng_seed += 1
            graph = nx.random_regular_graph(degree, num_nodes, seed=rng_seed)
        expected = [arc for a, b in graph.edges() for arc in ((a, b), (b, a))]
        topology = generators.random_regular(num_nodes, degree, seed=seed)
        assert [(edge.src, edge.dst) for edge in topology.edges] == expected


class TestWanLike:
    def test_node_and_edge_counts(self):
        topo = generators.wan_like(30, 40, seed=2)
        assert topo.num_nodes == 30
        assert topo.num_edges == 80
        assert topo.is_strongly_connected()

    def test_capacity_levels_respected(self):
        levels = (7.0, 13.0)
        topo = generators.wan_like(20, 25, seed=3, capacity_levels=levels)
        assert {e.capacity for e in topo.edges} <= set(levels)

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError):
            generators.wan_like(20, 10)

    def test_deterministic_for_same_seed(self):
        assert generators.wan_like(25, 30, seed=9) == generators.wan_like(25, 30, seed=9)


class TestZooTopologies:
    def test_geant_matches_table1(self):
        topo = zoo.geant()
        assert topo.num_nodes == 23
        assert topo.num_edges == 74
        assert topo.is_strongly_connected()
        assert len(zoo.GEANT_NODE_NAMES) == 23

    def test_geant_is_symmetric(self):
        topo = zoo.geant()
        for edge in topo.edges:
            assert topo.has_edge(edge.dst, edge.src)
            assert topo.capacity(edge.dst, edge.src) == edge.capacity

    def test_uscarrier_matches_table1(self):
        topo = zoo.uscarrier()
        assert topo.num_nodes == 158
        assert topo.num_edges == 378

    def test_cogentco_matches_table1(self):
        topo = zoo.cogentco()
        assert topo.num_nodes == 197
        assert topo.num_edges == 486
