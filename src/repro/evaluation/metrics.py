"""Metrics the paper reports over normalised-MLU series.

Every MLU in the paper's figures is normalised by the omniscient-optimal MLU
of the same demand matrix, so 1.0 means "as good as knowing the future".  The
box plots of Figure 5 are summarised here by mean and percentiles; the
"significant congestion" events counted in Section 5.2 are intervals whose
normalised MLU exceeds 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

__all__ = [
    "MLUStatistics",
    "normalized_mlu_statistics",
    "severe_congestion_fraction",
    "mean_confidence_interval",
    "SEVERE_CONGESTION_THRESHOLD",
]

#: Normalised-MLU threshold above which the paper counts an interval as a
#: severe congestion event (Section 5.2).
SEVERE_CONGESTION_THRESHOLD = 2.0


@dataclass(frozen=True)
class MLUStatistics:
    """Summary statistics of a normalised-MLU series.

    Attributes:
        mean: Average normalised MLU.
        median: 50th percentile.
        p25 / p75 / p90 / p95 / p99: Percentiles of the distribution.
        worst: Maximum normalised MLU observed.
        severe_congestion_fraction: Fraction of intervals whose normalised
            MLU exceeds :data:`SEVERE_CONGESTION_THRESHOLD`.
        num_samples: Number of evaluated intervals.
    """

    mean: float
    median: float
    p25: float
    p75: float
    p90: float
    p95: float
    p99: float
    worst: float
    severe_congestion_fraction: float
    num_samples: int


def severe_congestion_fraction(
    normalized_mlus: np.ndarray, threshold: float = SEVERE_CONGESTION_THRESHOLD
) -> float:
    """Fraction of intervals counted as severe congestion events."""
    series = np.asarray(normalized_mlus, dtype=float)
    if series.size == 0:
        raise ValueError("cannot compute statistics of an empty series")
    return float((series > threshold).mean())


def mean_confidence_interval(
    values: np.ndarray, confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and Student-t confidence half-width of a sample.

    The warehouse's repetition/seed aggregation reports every metric as
    ``mean +/- half_width`` at the given confidence level.  The half-width
    uses the t distribution with ``n - 1`` degrees of freedom (the correct
    small-sample interval for a handful of repetitions); a single sample has
    no spread information, so its half-width is reported as ``0.0``.

    Args:
        values: Per-repetition metric values (flattened).
        confidence: Two-sided confidence level in ``(0, 1)``.

    Returns:
        ``(mean, half_width)`` -- the interval is ``mean +/- half_width``.

    Raises:
        ValueError: On an empty sample or a confidence outside ``(0, 1)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    sample = np.asarray(values, dtype=float).ravel()
    if sample.size == 0:
        raise ValueError("cannot compute a confidence interval of an empty sample")
    mean = float(sample.mean())
    if sample.size == 1:
        return mean, 0.0
    sem = float(sample.std(ddof=1)) / float(np.sqrt(sample.size))
    # ``scipy.stats.t.ppf(q, df)`` is this call and nothing else, and
    # scipy.special is loaded already (scipy.optimize needs it), while
    # importing scipy.stats costs 0.4 s and 23 MB.
    half_width = float(stdtrit(sample.size - 1, 0.5 + confidence / 2.0) * sem)
    return mean, half_width


def normalized_mlu_statistics(normalized_mlus: np.ndarray) -> MLUStatistics:
    """Summarise a normalised-MLU series."""
    series = np.asarray(normalized_mlus, dtype=float)
    if series.size == 0:
        raise ValueError("cannot compute statistics of an empty series")
    percentiles = np.percentile(series, [25, 50, 75, 90, 95, 99])
    return MLUStatistics(
        mean=float(series.mean()),
        median=float(percentiles[1]),
        p25=float(percentiles[0]),
        p75=float(percentiles[2]),
        p90=float(percentiles[3]),
        p95=float(percentiles[4]),
        p99=float(percentiles[5]),
        worst=float(series.max()),
        severe_congestion_fraction=severe_congestion_fraction(series),
        num_samples=int(series.size),
    )
