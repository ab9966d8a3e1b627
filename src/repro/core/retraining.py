"""Retraining triggers for deployed FIGRET models.

Section 6 of the paper ("When should FIGRET be retrained?") uses simple
periodic retraining and leaves smarter triggers -- retraining after detecting
a significant change in traffic patterns, or after observing performance
degradation -- as future work.  This module implements both triggers so a
deployment can retrain only when it matters:

* :class:`TrafficDriftDetector` compares the per-pair statistics of a recent
  traffic window against the statistics of the data the model was trained on
  (cosine distance between mean vectors and Spearman correlation between
  variance rankings -- the quantity Table 5 shows is the one FIGRET actually
  relies on).
* :class:`PerformanceDegradationDetector` tracks the observed normalised MLU
  and signals when its rolling average exceeds the training-time baseline by
  a configurable margin.
* :class:`RetrainingPolicy` combines both with a periodic fallback.
* :class:`RetrainingScheme` wraps any trainable scheme with a policy so a
  deployment (or the evaluation engine) can replay it like a normal scheme
  while retraining happens behind the interface.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.te.config import TEConfiguration
from repro.te.scheme import TEScheme
from repro.traffic.matrix import TrafficMatrixSequence
from repro.traffic.perturb import variance_rank_spearman

__all__ = [
    "TrafficDriftDetector",
    "PerformanceDegradationDetector",
    "RetrainingPolicy",
    "RetrainingDecision",
    "RetrainingScheme",
]


@dataclass(frozen=True)
class RetrainingDecision:
    """The outcome of a retraining check.

    Attributes:
        retrain: Whether retraining is recommended now.
        reason: Human readable explanation (``"traffic drift"``,
            ``"performance degradation"``, ``"periodic"`` or ``"none"``).
        drift_score: Latest traffic drift score (0 = identical statistics).
        degradation: Latest relative performance degradation.
    """

    retrain: bool
    reason: str
    drift_score: float
    degradation: float


class TrafficDriftDetector:
    """Detects shifts in traffic statistics relative to the training data.

    The drift score combines two signals:

    * cosine distance between the per-pair mean-demand vectors of the training
      data and of the recent window (captures volume/shape shifts), and
    * ``1 - Spearman correlation`` between the per-pair variance rankings
      (captures changes in *which* pairs are bursty -- the property FIGRET's
      fine-grained constraints depend on).

    Args:
        train_sequence: The data the current model was trained on.
        drift_threshold: Score above which drift is reported.
    """

    def __init__(self, train_sequence: TrafficMatrixSequence, drift_threshold: float = 0.3) -> None:
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        self.drift_threshold = drift_threshold
        self.rebaseline(train_sequence)

    def rebaseline(self, train_sequence: TrafficMatrixSequence) -> None:
        """Adopt a new training period as the reference statistics.

        Must be called after the model is retrained; otherwise drift keeps
        being measured against the original (now obsolete) training data and
        the detector fires on every check.
        """
        self._train_mean = train_sequence.pair_mean()
        self._train_variance = train_sequence.pair_variance()

    def score(self, recent: TrafficMatrixSequence) -> float:
        """Drift score of a recent traffic window (0 = no drift)."""
        recent_mean = recent.pair_mean()
        recent_variance = recent.pair_variance()
        if recent_mean.shape != self._train_mean.shape:
            raise ValueError("recent window has a different number of SD pairs")
        denom = np.linalg.norm(recent_mean) * np.linalg.norm(self._train_mean)
        cosine = float(recent_mean @ self._train_mean / denom) if denom > 0 else 1.0
        mean_drift = 1.0 - np.clip(cosine, -1.0, 1.0)
        if np.allclose(self._train_variance, self._train_variance[0]) or np.allclose(
            recent_variance, recent_variance[0]
        ):
            rank_drift = 0.0
        else:
            rho = variance_rank_spearman(self._train_variance, recent_variance)
            rank_drift = 1.0 - float(np.clip(rho, -1.0, 1.0))
        return float(mean_drift + 0.5 * rank_drift)

    def has_drifted(self, recent: TrafficMatrixSequence) -> bool:
        """True if the recent window's drift score exceeds the threshold."""
        return self.score(recent) > self.drift_threshold


class PerformanceDegradationDetector:
    """Signals retraining when observed normalised MLU degrades persistently.

    Args:
        baseline: The normalised MLU the model achieved at deployment time
            (e.g. its validation mean).
        degradation_threshold: Relative increase of the rolling mean over the
            baseline that triggers retraining (0.1 = 10% worse).
        window: Number of recent observations in the rolling mean.
    """

    def __init__(self, baseline: float, degradation_threshold: float = 0.1, window: int = 50) -> None:
        if baseline <= 0:
            raise ValueError("baseline must be positive")
        if degradation_threshold <= 0:
            raise ValueError("degradation_threshold must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.baseline = float(baseline)
        self.degradation_threshold = degradation_threshold
        self._observations: deque[float] = deque(maxlen=window)

    def observe(self, normalized_mlu: float) -> None:
        """Record one interval's observed normalised MLU."""
        if normalized_mlu <= 0:
            raise ValueError("normalised MLU must be positive")
        self._observations.append(float(normalized_mlu))

    def reset(self, baseline: float | None = None) -> None:
        """Forget the old model's observations (optionally with a new baseline).

        Must be called after retraining: the rolling window still holds the
        previous model's degraded MLUs, which would otherwise keep the
        trigger armed until enough fresh observations dilute them.
        """
        if baseline is not None:
            if baseline <= 0:
                raise ValueError("baseline must be positive")
            self.baseline = float(baseline)
        self._observations.clear()

    @property
    def degradation(self) -> float:
        """Relative degradation of the rolling mean versus the baseline."""
        if not self._observations:
            return 0.0
        return float(np.mean(self._observations) / self.baseline - 1.0)

    def is_degraded(self) -> bool:
        """True once the rolling mean exceeds the baseline by the threshold."""
        return self.degradation > self.degradation_threshold


class RetrainingPolicy:
    """Combines drift detection, degradation detection and a periodic fallback.

    Args:
        drift_detector: Traffic drift detector (or None to disable).
        degradation_detector: Performance degradation detector (or None).
        period: Retrain at least every ``period`` checks regardless of the
            detectors (None disables the periodic fallback).
    """

    def __init__(
        self,
        drift_detector: TrafficDriftDetector | None = None,
        degradation_detector: PerformanceDegradationDetector | None = None,
        period: int | None = None,
    ) -> None:
        if drift_detector is None and degradation_detector is None and period is None:
            raise ValueError("at least one trigger must be configured")
        if period is not None and period < 1:
            raise ValueError("period must be at least 1")
        self.drift_detector = drift_detector
        self.degradation_detector = degradation_detector
        self.period = period
        self._checks_since_training = 0

    def notify_retrained(self) -> None:
        """Reset the periodic counter after a retraining has happened."""
        self._checks_since_training = 0

    def check(self, recent_traffic: TrafficMatrixSequence | None = None) -> RetrainingDecision:
        """Evaluate all triggers and return the retraining decision."""
        self._checks_since_training += 1
        drift_score = 0.0
        degradation = 0.0
        if self.degradation_detector is not None:
            degradation = self.degradation_detector.degradation
            if self.degradation_detector.is_degraded():
                return RetrainingDecision(True, "performance degradation", drift_score, degradation)
        if self.drift_detector is not None and recent_traffic is not None:
            drift_score = self.drift_detector.score(recent_traffic)
            if drift_score > self.drift_detector.drift_threshold:
                return RetrainingDecision(True, "traffic drift", drift_score, degradation)
        if self.period is not None and self._checks_since_training >= self.period:
            return RetrainingDecision(True, "periodic", drift_score, degradation)
        return RetrainingDecision(False, "none", drift_score, degradation)


class RetrainingScheme(TEScheme):
    """A TE scheme wrapper that retrains its inner scheme per a policy.

    The wrapper is itself a :class:`TEScheme`: ``precompute`` trains the
    wrapped scheme and arms the policy, ``configure`` / ``configure_batch``
    delegate to the wrapped scheme (so batched replay through the evaluation
    engine stays a single vectorized pass), and :meth:`maybe_retrain`
    evaluates the policy against recent traffic and retrains when it fires.

    Args:
        scheme: The scheme to wrap (typically FIGRET or DOTE).
        policy: The retraining triggers.
        name: Report name (defaults to the wrapped scheme's name).
    """

    def __init__(
        self,
        scheme: TEScheme,
        policy: RetrainingPolicy,
        name: str | None = None,
    ) -> None:
        super().__init__(scheme.path_set, name or scheme.name)
        self.scheme = scheme
        self.policy = policy
        self.retrain_count = 0
        self._train_sequence: TrafficMatrixSequence | None = None

    def precompute(self, train_sequence: TrafficMatrixSequence) -> None:
        self.scheme.precompute(train_sequence)
        self._train_sequence = train_sequence
        self.policy.notify_retrained()

    def configure(self, history: np.ndarray) -> TEConfiguration:
        return self.scheme.configure(history)

    def configure_batch(self, windows: np.ndarray) -> np.ndarray:
        return self.scheme.configure_batch(windows)

    def observe(self, normalized_mlu: float) -> None:
        """Feed one observed normalised MLU to the degradation detector."""
        if self.policy.degradation_detector is not None:
            self.policy.degradation_detector.observe(normalized_mlu)

    def maybe_retrain(
        self, recent_traffic: TrafficMatrixSequence | None = None
    ) -> RetrainingDecision:
        """Check the policy and retrain the wrapped scheme if it fires.

        Args:
            recent_traffic: Recent traffic window; used both to score drift
                and as the training data when retraining triggers.  When
                omitted (e.g. a degradation-only policy), retraining falls
                back to the last training data -- the model is effectively
                re-fit and the triggers are re-armed, so a fired trigger
                never stays latched.
        """
        decision = self.policy.check(recent_traffic)
        train_data = recent_traffic if recent_traffic is not None else self._train_sequence
        if decision.retrain and train_data is not None:
            self.scheme.precompute(train_data)
            # Re-arm the triggers against the new model: drift is now
            # measured relative to the data just trained on, and the old
            # model's degraded observations are discarded.
            if self.policy.drift_detector is not None:
                self.policy.drift_detector.rebaseline(train_data)
            if self.policy.degradation_detector is not None:
                self.policy.degradation_detector.reset()
            self.policy.notify_retrained()
            self._train_sequence = train_data
            self.retrain_count += 1
        return decision
