"""Meta-like data center traffic generation (PoD-level and ToR-level).

The paper's data center evaluation uses one day of traffic from Meta's DB and
WEB clusters ("Inside the social network's datacenter network"), aggregated
into 1-second (PoD-level) or 10-second (ToR-level) demand matrices.  Those
traces are not redistributable, so this generator produces synthetic traffic
with the characteristics the paper's analysis attributes to them
(Section 5.1, Figures 2 and 4):

* PoD-level traffic is moderately bursty: a small number of pods exchange
  large, mostly stable volumes with moderate fluctuations and occasional
  bursts.
* ToR-level traffic is highly dynamic and sparse: per-pair volumes are heavy
  tailed, many pairs are nearly idle most of the time, and bursts are frequent
  and large, producing low cosine similarity to recent history.
* Crucially for FIGRET, per-pair burstiness is *heterogeneous*: some pairs are
  stable, others burst frequently -- the diversity FIGRET's fine-grained
  robustness exploits (Figure 2).

The generator models each pair's demand as

    D_sd(t) = base_sd * seasonal(t) * ar_noise_sd(t) + burst_sd(t)

where ``base_sd`` is log-normal, ``ar_noise`` is a log-AR(1) process, and
``burst_sd(t)`` is an on/off Pareto-magnitude burst process whose rate and
magnitude differ per pair (a per-pair "burstiness score" drawn from a Beta
distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = ["DataCenterTrafficGenerator", "DataCenterTrafficProfile"]


@dataclass(frozen=True)
class DataCenterTrafficProfile:
    """Knobs describing one class of data center traffic.

    Attributes:
        sparsity: Fraction of SD pairs that are nearly idle (tiny base rate).
        base_sigma: Sigma of the log-normal distribution of per-pair base rates.
        ar_coefficient: Temporal correlation of the multiplicative noise.
        noise_sigma: Innovation sigma of the log-AR(1) noise.
        burst_rate_range: (min, max) per-interval burst probability for the
            most stable / most bursty pairs.
        burst_magnitude: Pareto scale of burst sizes, expressed as a multiple
            of the pair's base rate.
        burst_tail_index: Pareto tail index (smaller => heavier tail).
        bursty_pair_concentration: Beta-distribution parameter controlling how
            heterogeneous burstiness is across pairs (smaller => more pairs
            are either very stable or very bursty).
    """

    sparsity: float
    base_sigma: float
    ar_coefficient: float
    noise_sigma: float
    burst_rate_range: tuple[float, float]
    burst_magnitude: float
    burst_tail_index: float
    bursty_pair_concentration: float


#: Moderately bursty PoD-level traffic (Meta DB / WEB PoD aggregation).
POD_PROFILE = DataCenterTrafficProfile(
    sparsity=0.0,
    base_sigma=0.5,
    ar_coefficient=0.85,
    noise_sigma=0.10,
    burst_rate_range=(0.002, 0.05),
    burst_magnitude=2.5,
    burst_tail_index=2.5,
    bursty_pair_concentration=0.8,
)

#: Highly dynamic, sparse ToR-level traffic.
TOR_PROFILE = DataCenterTrafficProfile(
    sparsity=0.35,
    base_sigma=1.2,
    ar_coefficient=0.6,
    noise_sigma=0.35,
    burst_rate_range=(0.01, 0.25),
    burst_magnitude=6.0,
    burst_tail_index=1.8,
    bursty_pair_concentration=0.5,
)

_PROFILES = {"pod": POD_PROFILE, "tor": TOR_PROFILE}


class DataCenterTrafficGenerator:
    """Synthetic Meta-like data center traffic.

    Args:
        topology: Data center topology (full mesh for PoD level, random
            regular graph for ToR level).
        level: ``"pod"`` or ``"tor"``, selecting a preset profile, or pass a
            custom :class:`DataCenterTrafficProfile` via ``profile``.
        mean_utilization: Coarse target for the average network load.
        profile: Optional explicit profile overriding ``level``.
        seed: RNG seed.
    """

    def __init__(
        self,
        topology: Topology,
        level: str = "pod",
        mean_utilization: float = 0.3,
        profile: DataCenterTrafficProfile | None = None,
        seed: int = 0,
    ) -> None:
        if profile is None:
            if level not in _PROFILES:
                raise ValueError(f"unknown traffic level {level!r}; use 'pod' or 'tor'")
            profile = _PROFILES[level]
        self.topology = topology
        self.level = level
        self.profile = profile
        self.mean_utilization = mean_utilization
        self.seed = seed

    def generate(self, num_intervals: int, interval_seconds: float | None = None) -> TrafficMatrixSequence:
        """Generate ``num_intervals`` demand matrices."""
        if num_intervals < 1:
            raise ValueError("num_intervals must be at least 1")
        profile = self.profile
        rng = np.random.default_rng(self.seed)
        n = self.topology.num_nodes
        num_pairs = n * (n - 1)

        # Per-pair base rates: log-normal, with a sparse subset nearly idle.
        base = rng.lognormal(mean=0.0, sigma=profile.base_sigma, size=num_pairs)
        idle = rng.random(num_pairs) < profile.sparsity
        base[idle] *= 0.01

        # Per-pair burstiness score in [0, 1]; heterogeneity across pairs is
        # what makes fine-grained robustness worthwhile.
        concentration = profile.bursty_pair_concentration
        burstiness = rng.beta(concentration, concentration, size=num_pairs)
        low, high = profile.burst_rate_range
        burst_rate = low + burstiness * (high - low)

        # Scale the base so the expected total demand matches the target load.
        total_capacity = self.topology.total_capacity()
        target_total = self.mean_utilization * total_capacity / 4.0
        base *= target_total / base.sum()

        log_noise = np.zeros(num_pairs)
        demands = np.empty((num_intervals, num_pairs))
        for t in range(num_intervals):
            innovations = rng.normal(0.0, profile.noise_sigma, size=num_pairs)
            log_noise = profile.ar_coefficient * log_noise + innovations
            demand_flat = base * np.exp(log_noise)
            burst_events = rng.random(num_pairs) < burst_rate
            if burst_events.any():
                magnitudes = (
                    rng.pareto(profile.burst_tail_index, size=num_pairs) + 1.0
                ) * profile.burst_magnitude
                demand_flat = np.where(
                    burst_events, demand_flat + base * magnitudes, demand_flat
                )
            demands[t] = demand_flat
        if interval_seconds is None:
            interval_seconds = 1.0 if self.level == "pod" else 10.0
        return TrafficMatrixSequence.from_flat(
            demands,
            n,
            interval_seconds=interval_seconds,
            name=f"dc-{self.level}-{self.topology.name}",
        )
