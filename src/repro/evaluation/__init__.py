"""Evaluation harness: the replay engine, metrics, and report formatting.

Experiment protocols (scheme comparison, fluctuation, drift, failures) are
declared as :class:`repro.study.Study` specs; this package is the replay
kernel they run on.
"""

from repro.evaluation.metrics import (
    MLUStatistics,
    mean_confidence_interval,
    normalized_mlu_statistics,
    severe_congestion_fraction,
)
from repro.evaluation.engine import (
    EvaluationEngine,
    EvaluationResult,
    build_history_windows,
    default_engine,
    iter_window_chunks,
)
from repro.evaluation import reporting

__all__ = [
    "MLUStatistics",
    "normalized_mlu_statistics",
    "severe_congestion_fraction",
    "mean_confidence_interval",
    "EvaluationEngine",
    "build_history_windows",
    "iter_window_chunks",
    "default_engine",
    "EvaluationResult",
    "reporting",
]
