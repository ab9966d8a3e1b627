"""The burst-aware FIGRET loss (Section 4.3).

The loss has two components:

* ``L1`` -- the maximum link utilisation induced by the configuration on the
  revealed demand ``D_t`` (Equation 7), optionally normalised by the
  omniscient-optimal MLU of ``D_t`` for training stability (as in DOTE).
* ``L2`` -- the fine-grained robustness term of Equation 8:
  ``sum_{s,d} sigma^2_{sd} * S^max_{sd}``, i.e. each SD pair's maximum path
  sensitivity weighted by that pair's historical traffic variance.  Pair
  variances are normalised to sum to one so the term is a variance-weighted
  average sensitivity and the ``robustness_weight`` hyper-parameter has a
  scale that transfers across topologies.

The total loss is ``L1 + robustness_weight * L2``; ``robustness_weight = 0``
recovers DOTE's pure-MLU objective.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor
from repro.paths.path_set import PathSet
from repro.solvers.lp import NORMALIZER_FLOOR
from repro.te.sensitivity import normalized_path_capacities

__all__ = ["TELoss"]


class TELoss:
    """Differentiable MLU + fine-grained sensitivity loss.

    Args:
        path_set: Candidate paths.
        pair_variance: Historical per-pair demand variance
            (``sigma^2_{sd, [1-T]}``), in SD-pair order.  ``None`` disables the
            robustness term regardless of ``robustness_weight``.
        robustness_weight: Weight of the L2 term.
    """

    def __init__(
        self,
        path_set: PathSet,
        pair_variance: np.ndarray | None = None,
        robustness_weight: float = 0.0,
    ) -> None:
        self.path_set = path_set
        self.robustness_weight = float(robustness_weight)
        self._path_sd_index = path_set.path_sd_index
        self._num_pairs = path_set.num_sd_pairs
        self._dense_path_to_edge = path_set.path_to_edge.toarray()
        self._inv_capacities = 1.0 / path_set.topology.capacities
        self._inv_norm_path_caps = 1.0 / normalized_path_capacities(path_set)
        if pair_variance is None:
            self._variance_weights = None
        else:
            variance = np.asarray(pair_variance, dtype=float)
            if variance.shape != (self._num_pairs,):
                raise ValueError("pair_variance must have one entry per SD pair")
            total = variance.sum()
            self._variance_weights = variance / total if total > 0 else variance

    # ------------------------------------------------------------------ #
    # Differentiable pieces
    # ------------------------------------------------------------------ #
    def split_ratios(self, raw_scores: Tensor) -> Tensor:
        """Normalise raw network outputs into per-pair split ratios.

        Each SD pair's scores are divided by their sum, guaranteeing the
        feasibility constraint ``sum_p r_p = 1`` (Section 6).
        """
        sums = raw_scores.segment_sum(self._path_sd_index, self._num_pairs)
        sums = sums + 1e-12
        return raw_scores / sums.gather_last(self._path_sd_index)

    def mlu(self, split_ratios: Tensor, demands: np.ndarray) -> Tensor:
        """Per-sample MLU of a batch of configurations on a batch of demands."""
        demand_per_path = np.asarray(demands, dtype=float)[..., self._path_sd_index]
        flow_on_path = split_ratios * demand_per_path
        flow_on_edge = flow_on_path @ self._dense_path_to_edge
        utilization = flow_on_edge * self._inv_capacities
        return utilization.max(axis=-1)

    def sensitivity_term(self, split_ratios: Tensor) -> Tensor:
        """Per-sample variance-weighted maximum sensitivity (Equation 8)."""
        if self._variance_weights is None:
            raise RuntimeError("sensitivity term requested but no pair variance was provided")
        sensitivities = split_ratios * self._inv_norm_path_caps
        max_per_pair = sensitivities.segment_max(self._path_sd_index, self._num_pairs)
        return (max_per_pair * self._variance_weights).sum(axis=-1)

    def __call__(
        self,
        raw_scores: Tensor,
        demands: np.ndarray,
        optimal_mlu: np.ndarray | None = None,
    ) -> tuple[Tensor, dict[str, float]]:
        """Compute the total loss for a batch.

        Args:
            raw_scores: Network outputs, shape ``(batch, num_paths)``.
            demands: Revealed demands ``D_t``, shape ``(batch, num_sd_pairs)``.
            optimal_mlu: Optional per-sample omniscient MLU used to normalise
                L1.

        Returns:
            ``(scalar loss tensor, {"mlu": .., "sensitivity": .., "total": ..})``.
        """
        ratios = self.split_ratios(raw_scores)
        mlu = self.mlu(ratios, demands)
        if optimal_mlu is not None:
            mlu = mlu / np.maximum(np.asarray(optimal_mlu, dtype=float), NORMALIZER_FLOOR)
        loss_mlu = mlu.mean()
        components = {"mlu": float(loss_mlu.item())}
        total = loss_mlu
        if self.robustness_weight > 0 and self._variance_weights is not None:
            loss_sens = self.sensitivity_term(ratios).mean()
            components["sensitivity"] = float(loss_sens.item())
            total = loss_mlu + self.robustness_weight * loss_sens
        else:
            components["sensitivity"] = 0.0
        components["total"] = float(total.item())
        return total, components
