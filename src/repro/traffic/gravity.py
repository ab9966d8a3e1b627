"""Gravity-model traffic generation.

The paper generates synthetic traffic for the UsCarrier and Cogentco
topologies with a gravity model (Section 5.1): each node has an activity
weight and the demand between ``s`` and ``d`` is proportional to the product
of their weights.  Gravity traffic is intentionally stable -- the paper uses
it to study TE performance under non-bursty conditions (Figure 5(d)).
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence

__all__ = ["gravity_matrix", "GravityTrafficGenerator"]


def node_weights_from_capacity(topology: Topology) -> np.ndarray:
    """Node activity weights proportional to total attached capacity.

    Nodes with more attached capacity originate and attract more traffic,
    which is the standard way of seeding a gravity model from a topology.
    """
    weights = np.zeros(topology.num_nodes)
    for edge in topology.edges:
        weights[edge.src] += edge.capacity
        weights[edge.dst] += edge.capacity
    return weights / weights.sum()


def gravity_matrix(
    topology: Topology,
    total_demand: float,
    weights: np.ndarray | None = None,
) -> TrafficMatrix:
    """A single gravity-model demand matrix.

    Args:
        topology: Topology providing node count (and default weights).
        total_demand: Total traffic volume across all pairs.
        weights: Optional per-node activity weights (normalised internally).
    """
    if weights is None:
        weights = node_weights_from_capacity(topology)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    outer = np.outer(weights, weights)
    np.fill_diagonal(outer, 0.0)
    outer = outer / outer.sum()
    return TrafficMatrix(outer * total_demand)


class GravityTrafficGenerator:
    """Generates a stable gravity-model traffic sequence with mild noise.

    Args:
        topology: The topology to generate traffic for.
        mean_utilization: Target scale: the total demand is chosen so that a
            shortest-path routing of the base matrix would load the network
            to roughly this mean utilisation (a coarse but reproducible way
            of picking sensible volumes).
        noise_level: Standard deviation of per-pair multiplicative log-normal
            noise applied at every interval (small => stable traffic).
        seed: RNG seed.
    """

    def __init__(
        self,
        topology: Topology,
        mean_utilization: float = 0.3,
        noise_level: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0 < mean_utilization:
            raise ValueError("mean_utilization must be positive")
        self.topology = topology
        self.mean_utilization = mean_utilization
        self.noise_level = noise_level
        self.seed = seed
        total_capacity = topology.total_capacity()
        # Scale so aggregate demand is a fraction of aggregate capacity; the
        # average path has a handful of hops so this keeps MLU moderate.
        self._total_demand = mean_utilization * total_capacity / 4.0
        self._base = gravity_matrix(topology, self._total_demand).matrix

    def generate(self, num_intervals: int, interval_seconds: float = 900.0) -> TrafficMatrixSequence:
        """Generate ``num_intervals`` demand matrices."""
        if num_intervals < 1:
            raise ValueError("num_intervals must be at least 1")
        rng = np.random.default_rng(self.seed)
        # One draw for the whole trace: the generator hands out the same
        # stream as one draw per interval would.
        noise = rng.lognormal(
            mean=0.0, sigma=self.noise_level, size=(num_intervals, *self._base.shape)
        )
        return TrafficMatrixSequence(
            self._base * noise,
            interval_seconds=interval_seconds,
            name=f"gravity-{self.topology.name}",
        )
