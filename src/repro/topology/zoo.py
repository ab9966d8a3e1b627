"""Topology-Zoo-sized WAN topologies used in the paper (Table 1).

The original evaluation uses GEANT (23 nodes / 74 directed edges), UsCarrier
(158 / 378) and Cogentco (197 / 486) from the Internet Topology Zoo.  The raw
GraphML files are not redistributable here, so this module provides:

* ``geant()`` -- a hand-embedded 23-node European research network whose node
  and (directed) edge counts match the paper's Table 1, with a realistic mix
  of link capacity tiers.
* ``uscarrier()`` / ``cogentco()`` -- synthetic carrier backbones generated by
  :func:`repro.topology.generators.wan_like` with exactly the node and edge
  counts reported in Table 1 (deterministic seeds).

The evaluation of FIGRET depends on the scale and path diversity of these
graphs rather than on their exact adjacency, so this substitution preserves
the experiments' behaviour.
"""

from __future__ import annotations

from repro.topology.generators import wan_like
from repro.topology.graph import Topology

__all__ = ["geant", "uscarrier", "cogentco", "GEANT_NODE_NAMES"]


#: City labels for the 23 GEANT points of presence (for readable examples).
GEANT_NODE_NAMES = (
    "Vienna", "Brussels", "Zurich", "Prague", "Berlin", "Copenhagen",
    "Madrid", "Tallinn", "Athens", "Zagreb", "Budapest", "Dublin",
    "Tel-Aviv", "Milan", "Luxembourg", "Amsterdam", "Warsaw", "Lisbon",
    "Bucharest", "Stockholm", "Ljubljana", "Bratislava", "London",
)

# Undirected adjacency of the embedded GEANT-like backbone: 37 links over 23
# nodes => 74 directed edges, matching Table 1.  Capacities use three tiers
# (2.5, 10, 40 Gbps in arbitrary units) roughly matching GEANT's mix of
# OC-48 / 10G / 40G circuits: core western-European links are fat, peripheral
# links are thin.
_GEANT_LINKS: tuple[tuple[int, int, float], ...] = (
    # Core ring: London - Amsterdam - Berlin - Prague - Vienna - Milan -
    # Zurich - Brussels - London
    (22, 15, 40.0), (15, 4, 40.0), (4, 3, 40.0), (3, 0, 40.0),
    (0, 13, 40.0), (13, 2, 40.0), (2, 1, 40.0), (1, 22, 40.0),
    # Western extensions
    (22, 11, 10.0),   # London - Dublin
    (22, 6, 10.0),    # London - Madrid
    (6, 17, 10.0),    # Madrid - Lisbon
    (17, 22, 2.5),    # Lisbon - London (backup)
    (1, 14, 10.0),    # Brussels - Luxembourg
    (14, 2, 10.0),    # Luxembourg - Zurich
    (15, 1, 10.0),    # Amsterdam - Brussels
    (15, 5, 10.0),    # Amsterdam - Copenhagen
    # Northern / eastern extensions
    (5, 19, 10.0),    # Copenhagen - Stockholm
    (19, 7, 2.5),     # Stockholm - Tallinn
    (7, 16, 2.5),     # Tallinn - Warsaw
    (16, 4, 10.0),    # Warsaw - Berlin
    (16, 3, 2.5),     # Warsaw - Prague
    (3, 21, 2.5),     # Prague - Bratislava
    (21, 0, 2.5),     # Bratislava - Vienna
    (0, 10, 10.0),    # Vienna - Budapest
    (10, 18, 2.5),    # Budapest - Bucharest
    (18, 8, 2.5),     # Bucharest - Athens
    (8, 13, 10.0),    # Athens - Milan
    (8, 12, 2.5),     # Athens - Tel-Aviv
    (12, 13, 2.5),    # Tel-Aviv - Milan
    (0, 9, 2.5),      # Vienna - Zagreb
    (9, 20, 2.5),     # Zagreb - Ljubljana
    (20, 13, 2.5),    # Ljubljana - Milan
    (9, 10, 2.5),     # Zagreb - Budapest
    (16, 10, 2.5),    # Warsaw - Budapest
    (4, 5, 10.0),     # Berlin - Copenhagen
    (11, 15, 2.5),    # Dublin - Amsterdam
    (6, 13, 2.5),     # Madrid - Milan
)


def geant() -> Topology:
    """The GEANT-like WAN: 23 nodes, 74 directed edges (Table 1)."""
    edges = []
    for a, b, cap in _GEANT_LINKS:
        edges.append((a, b, cap))
        edges.append((b, a, cap))
    topo = Topology(23, edges, name="GEANT")
    return topo


def uscarrier(seed: int = 7) -> Topology:
    """A UsCarrier-sized synthetic WAN: 158 nodes, 378 directed edges."""
    return wan_like(158, 189, seed=seed, name="UsCarrier")


def cogentco(seed: int = 11) -> Topology:
    """A Cogentco-sized synthetic WAN: 197 nodes, 486 directed edges."""
    return wan_like(197, 243, seed=seed, name="Cogentco")
