"""GEANT-like WAN traffic generation.

The public GEANT/TOTEM traces used by the paper (15-minute demand matrices
over four months) are not redistributable here; this generator produces a
synthetic trace with the statistical properties the evaluation relies on
(Section 5.1, Figures 2 and 4):

* Mostly stable demand: the cosine similarity between the current matrix and
  the closest of the last 12 matrices is near one for most intervals.
* Strong diurnal and weekly seasonality.
* Heterogeneous per-pair volumes (gravity base derived from link capacities).
* Occasional unexpected bursts on a subset of pairs, producing the
  low-similarity outliers visible in Figure 4 and the spread of per-pair
  variance visible in Figure 2.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology
from repro.traffic.gravity import gravity_matrix
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = ["GeantLikeGenerator"]


class GeantLikeGenerator:
    """Synthetic WAN traffic with diurnal seasonality and sparse bursts.

    Args:
        topology: WAN topology.
        mean_utilization: Coarse target for the average network load.
        intervals_per_day: Number of demand matrices per day (96 for the
            GEANT 15-minute aggregation).
        burst_pair_fraction: Fraction of SD pairs that are burst-prone.
        burst_probability: Per-interval probability that a burst-prone pair
            bursts.
        burst_scale: Multiplicative magnitude of a burst (mean of the
            exponential burst multiplier added on top of the base demand).
        noise_level: Log-normal noise sigma applied to every pair and
            interval.
        seed: RNG seed.
    """

    def __init__(
        self,
        topology: Topology,
        mean_utilization: float = 0.3,
        intervals_per_day: int = 96,
        burst_pair_fraction: float = 0.05,
        burst_probability: float = 0.01,
        burst_scale: float = 4.0,
        noise_level: float = 0.08,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.intervals_per_day = intervals_per_day
        self.burst_pair_fraction = burst_pair_fraction
        self.burst_probability = burst_probability
        self.burst_scale = burst_scale
        self.noise_level = noise_level
        self.seed = seed
        total_capacity = topology.total_capacity()
        self._total_demand = mean_utilization * total_capacity / 4.0
        self._base = gravity_matrix(topology, self._total_demand).matrix

    def generate(self, num_intervals: int) -> TrafficMatrixSequence:
        """Generate ``num_intervals`` demand matrices (15-minute spacing)."""
        rng = np.random.default_rng(self.seed)
        n = self.topology.num_nodes
        off_diagonal = ~np.eye(n, dtype=bool)
        num_pairs = int(off_diagonal.sum())

        num_bursty = max(1, int(round(self.burst_pair_fraction * num_pairs)))
        bursty_flat_indices = rng.choice(num_pairs, size=num_bursty, replace=False)
        bursty_mask_flat = np.zeros(num_pairs, dtype=bool)
        bursty_mask_flat[bursty_flat_indices] = True
        bursty_mask = np.zeros((n, n), dtype=bool)
        bursty_mask[off_diagonal] = bursty_mask_flat

        demands = np.empty((num_intervals, n, n))
        for t in range(num_intervals):
            day_phase = 2.0 * np.pi * (t % self.intervals_per_day) / self.intervals_per_day
            week_phase = 2.0 * np.pi * (t % (7 * self.intervals_per_day)) / (
                7 * self.intervals_per_day
            )
            seasonal = 1.0 + 0.35 * np.sin(day_phase - np.pi / 2) + 0.10 * np.sin(week_phase)
            seasonal = max(seasonal, 0.1)
            noise = rng.lognormal(mean=0.0, sigma=self.noise_level, size=(n, n))
            demand = self._base * seasonal * noise
            # Sparse, unexpected bursts on the burst-prone pairs.
            burst_events = (rng.random((n, n)) < self.burst_probability) & bursty_mask
            if burst_events.any():
                multipliers = 1.0 + rng.exponential(self.burst_scale, size=(n, n))
                demand = np.where(burst_events, demand * multipliers, demand)
            demands[t] = demand
        return TrafficMatrixSequence(
            demands,
            interval_seconds=900.0,
            name=f"geant-like-{self.topology.name}",
        )
