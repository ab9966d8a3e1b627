"""Traffic perturbations used by the robustness experiments (Tables 3 and 5).

Two perturbations are reproduced:

* :func:`gaussian_fluctuation` -- Table 3: each pair's demand receives an
  additive fluctuation ``alpha * N(0, sigma_sd^2)`` where ``sigma_sd`` is the
  pair's historical standard deviation.
* :func:`reverse_rank_fluctuation` -- Table 5 (worst case): the magnitudes of
  fluctuations are assigned to pairs in *reverse* order of their historical
  variance rank, so historically stable pairs receive the largest
  fluctuations -- the adversarial scenario for a scheme that learned which
  pairs are stable.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.matrix import TrafficMatrixSequence

__all__ = [
    "gaussian_fluctuation",
    "reverse_rank_fluctuation",
    "variance_rank_spearman",
]


def gaussian_fluctuation(
    sequence: TrafficMatrixSequence,
    alpha: float,
    reference_std: np.ndarray,
    seed: int = 0,
) -> TrafficMatrixSequence:
    """Add per-pair Gaussian fluctuations scaled by historical std (Table 3).

    Args:
        sequence: The sequence to perturb (typically the test split).
        alpha: Fluctuation amplitude factor (0.2 / 0.5 / 1.0 / 2.0 in the
            paper).
        reference_std: Per-pair standard deviation measured on the *training*
            period (``sigma_{D_sd, [1-T]}``), in SD-pair order.
        seed: RNG seed.

    Returns:
        A new sequence with demands ``max(0, D_sd + alpha * N(0, sigma_sd^2))``.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    rng = np.random.default_rng(seed)
    flats = sequence.flat_demands()
    std = np.asarray(reference_std, dtype=float)
    if std.shape != (flats.shape[1],):
        raise ValueError("reference_std must have one entry per SD pair")
    noise = rng.normal(0.0, 1.0, size=flats.shape) * std * alpha
    perturbed = np.clip(flats + noise, 0.0, None)
    return TrafficMatrixSequence.from_flat(
        perturbed,
        sequence.num_nodes,
        interval_seconds=sequence.interval_seconds,
        name=f"{sequence.name}-fluct{alpha}",
    )


def reverse_rank_fluctuation(
    sequence: TrafficMatrixSequence,
    alpha: float,
    reference_std: np.ndarray,
    seed: int = 0,
) -> TrafficMatrixSequence:
    """Worst-case fluctuation: reverse the variance ranking across pairs (Table 5).

    The fluctuation applied to the pair with the *lowest* historical variance
    uses the std of the pair with the *highest* historical variance, and so
    on.  This punishes schemes that relaxed robustness for historically
    stable pairs.
    """
    std = np.asarray(reference_std, dtype=float)
    order = np.argsort(std)
    reversed_std = np.empty_like(std)
    # Pair with the smallest std receives the largest std, etc.
    reversed_std[order] = std[order[::-1]]
    return gaussian_fluctuation(sequence, alpha, reversed_std, seed=seed)


def variance_rank_spearman(train_variance: np.ndarray, test_variance: np.ndarray) -> float:
    """Spearman rank correlation between train and test per-pair variances.

    The paper reports 0.92 (PoD DB) and 0.98 (ToR DB), arguing that the
    adversarial rank reversal of Table 5 is rare in practice.
    """
    from scipy import stats as scipy_stats

    train = np.asarray(train_variance, dtype=float)
    test = np.asarray(test_variance, dtype=float)
    if train.shape != test.shape:
        raise ValueError("variance vectors must have the same shape")
    result = scipy_stats.spearmanr(train, test)
    return float(result.statistic)
