"""pFabric-style flow-level traffic generation.

The pFabric trace of the paper (Section 5.1) is characterised by a Poisson
flow arrival process: when a flow arrives, its source and destination ToRs
are chosen uniformly at random, and its size is drawn from the "web search"
workload distribution of the pFabric paper.  Flows are aggregated into
per-interval demand matrices.

The web-search flow size distribution is reproduced here as the piecewise
empirical CDF published with the pFabric/DCTCP papers (sizes in bytes,
heavy-tailed: ~50% of flows are < 100 KB but a few multi-megabyte flows carry
most of the bytes).
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = ["PFabricTrafficGenerator", "WEB_SEARCH_FLOW_SIZE_CDF", "sample_flow_sizes"]


#: Piecewise empirical CDF of the web-search workload: (flow size in bytes,
#: cumulative probability).  Reproduced from the pFabric evaluation workload.
WEB_SEARCH_FLOW_SIZE_CDF: tuple[tuple[float, float], ...] = (
    (6_000, 0.15),
    (13_000, 0.30),
    (19_000, 0.40),
    (33_000, 0.53),
    (53_000, 0.60),
    (133_000, 0.70),
    (667_000, 0.80),
    (1_333_000, 0.90),
    (3_333_000, 0.95),
    (6_667_000, 0.98),
    (20_000_000, 1.00),
)


def sample_flow_sizes(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample flow sizes (bytes) from the web-search distribution.

    Sampling uses inverse-transform on the piecewise-linear interpolation of
    the empirical CDF.
    """
    sizes = np.array([0.0] + [s for s, _ in WEB_SEARCH_FLOW_SIZE_CDF])
    probs = np.array([0.0] + [p for _, p in WEB_SEARCH_FLOW_SIZE_CDF])
    uniform = rng.random(size)
    return np.interp(uniform, probs, sizes)


class PFabricTrafficGenerator:
    """Poisson flow arrivals aggregated into demand matrices.

    Args:
        topology: The (direct-connect) pFabric topology.
        flows_per_interval: Expected number of flow arrivals per aggregation
            interval (Poisson mean).
        interval_seconds: Aggregation interval length.
        mean_utilization: If set, the generated matrices are rescaled so the
            average per-interval total demand corresponds to roughly this
            network load (keeps MLU in a sensible range regardless of the
            byte-level flow sizes).
        seed: RNG seed.
    """

    def __init__(
        self,
        topology: Topology,
        flows_per_interval: float = 600.0,
        interval_seconds: float = 60.0,
        mean_utilization: float | None = 0.3,
        seed: int = 0,
    ) -> None:
        if flows_per_interval <= 0:
            raise ValueError("flows_per_interval must be positive")
        self.topology = topology
        self.flows_per_interval = flows_per_interval
        self.interval_seconds = interval_seconds
        self.mean_utilization = mean_utilization
        self.seed = seed

    def generate(self, num_intervals: int) -> TrafficMatrixSequence:
        """Generate ``num_intervals`` demand matrices."""
        rng = np.random.default_rng(self.seed)
        n = self.topology.num_nodes
        raw = np.zeros((num_intervals, n, n))
        for t in range(num_intervals):
            num_flows = rng.poisson(self.flows_per_interval)
            if num_flows == 0:
                continue
            sources = rng.integers(0, n, size=num_flows)
            # Destination uniform over the other nodes.
            offsets = rng.integers(1, n, size=num_flows)
            destinations = (sources + offsets) % n
            sizes = sample_flow_sizes(rng, num_flows)
            np.add.at(raw[t], (sources, destinations), sizes)
        if self.mean_utilization is not None:
            total_capacity = self.topology.total_capacity()
            target_total = self.mean_utilization * total_capacity / 4.0
            mean_total = raw.sum(axis=(1, 2)).mean()
            if mean_total > 0:
                raw *= target_total / mean_total
        return TrafficMatrixSequence(
            raw,
            interval_seconds=self.interval_seconds,
            name=f"pfabric-{self.topology.name}",
        )
