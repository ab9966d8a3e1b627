"""Desensitization-based TE (Google Jupiter's hedging mechanism).

This is baseline (2) of Section 5.1: the scheme deployed in Google's Jupiter
data centers.  It builds an *anticipated* demand matrix from the per-pair
peak over a recent window and minimises MLU under a uniform path-sensitivity
constraint ``S_p = r_p / C_p <= threshold`` that forces every flow to hedge
across multiple paths.

The fault-aware variant (``FA Des TE`` in Figure 7) additionally knows which
links will fail and optimises only over the surviving paths.
"""

from __future__ import annotations

import numpy as np

from repro.paths.path_set import PathSet
from repro.solvers.lp import _demand_history, solve_mlu_lp
from repro.te.config import TEConfiguration
from repro.te.scheme import TEScheme
from repro.te.sensitivity import normalized_path_capacities

__all__ = ["DesensitizationTE", "FaultAwareDesensitizationTE"]

#: Default uniform sensitivity threshold, expressed w.r.t. capacities
#: normalised so the smallest edge capacity equals 1 (the "Original" setting
#: of Appendix C, Tables 7 and 8).
DEFAULT_SENSITIVITY_THRESHOLD = 2.0 / 3.0


class DesensitizationTE(TEScheme):
    """Google-Jupiter-style hedging TE with a fixed sensitivity threshold.

    Args:
        path_set: Candidate paths.
        sensitivity_threshold: Uniform upper bound on the (capacity
            normalised) path sensitivity.  If the bound would make some SD
            pair infeasible (because even spreading over all of its paths
            cannot satisfy it), the bound is relaxed for that pair to the
            smallest feasible value.
        window: Number of recent demand matrices whose per-pair peak forms
            the anticipated matrix.
    """

    def __init__(
        self,
        path_set: PathSet,
        sensitivity_threshold: float = DEFAULT_SENSITIVITY_THRESHOLD,
        window: int = 12,
    ) -> None:
        super().__init__(path_set, name="Des TE")
        if sensitivity_threshold <= 0:
            raise ValueError("sensitivity_threshold must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.sensitivity_threshold = sensitivity_threshold
        self.window = window
        self._caps = self._feasible_caps(
            np.full(path_set.num_sd_pairs, sensitivity_threshold)
        )

    def _feasible_caps(self, per_pair_threshold: np.ndarray) -> np.ndarray:
        """Translate per-pair sensitivity thresholds into per-path ratio caps.

        The ratio cap of path ``p`` serving pair ``sd`` is
        ``threshold_sd * C_p`` (with normalised capacities).  If the caps of a
        pair's paths sum to less than one, the pair's threshold is raised to
        the smallest feasible value so that the LP stays solvable -- this is
        the feasibility caveat discussed in Appendix C.1.
        """
        norm_caps = normalized_path_capacities(self.path_set)
        thresholds = np.asarray(per_pair_threshold, dtype=float).copy()
        for pair_idx, (src, dst) in enumerate(self.path_set.sd_pairs):
            indices = np.array(self.path_set.path_indices_for(src, dst))
            total = float(norm_caps[indices].sum())
            min_feasible = 1.0 / total if total > 0 else np.inf
            if thresholds[pair_idx] < min_feasible:
                thresholds[pair_idx] = min_feasible
        return thresholds[self.path_set.path_sd_index] * norm_caps

    def anticipated_demand(self, history: np.ndarray) -> np.ndarray:
        """Per-pair peak over the most recent ``window`` demand vectors."""
        return _demand_history(history)[-self.window :].max(axis=0)

    def configure(self, history: np.ndarray) -> TEConfiguration:
        anticipated = self.anticipated_demand(history)
        config, _ = solve_mlu_lp(self.path_set, anticipated, sensitivity_caps=self._caps)
        return config


class FaultAwareDesensitizationTE(DesensitizationTE):
    """Des TE with oracle knowledge of upcoming link failures (``FA Des TE``).

    Args:
        path_set: Candidate paths.
        failed_edges: Directed edges known to fail; paths traversing them are
            excluded from the optimisation.
        sensitivity_threshold: As in :class:`DesensitizationTE`.
        window: As in :class:`DesensitizationTE`.
    """

    def __init__(
        self,
        path_set: PathSet,
        failed_edges: set[tuple[int, int]] | None = None,
        sensitivity_threshold: float = DEFAULT_SENSITIVITY_THRESHOLD,
        window: int = 12,
    ) -> None:
        super().__init__(path_set, sensitivity_threshold=sensitivity_threshold, window=window)
        self.name = "FA Des TE"
        self.failed_edges: set[tuple[int, int]] = set(failed_edges or set())

    def set_failures(self, failed_edges: set[tuple[int, int]]) -> None:
        """Update the set of links the scheme knows will fail."""
        self.failed_edges = set(failed_edges)

    def configure(self, history: np.ndarray) -> TEConfiguration:
        anticipated = self.anticipated_demand(history)
        mask = self.path_set.restrict_to_working_paths(self.failed_edges)
        config, _ = solve_mlu_lp(
            self.path_set,
            anticipated,
            sensitivity_caps=self._caps,
            path_mask=mask,
        )
        return config
