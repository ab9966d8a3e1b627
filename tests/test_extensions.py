"""Tests for the deployment-oriented extensions: WCMP quantization and retraining triggers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.retraining import (
    PerformanceDegradationDetector,
    RetrainingPolicy,
    TrafficDriftDetector,
)
from repro.te.config import TEConfiguration
from repro.te.mlu import max_link_utilization
from repro.te.quantize import quantization_error, quantize_configuration
from repro.traffic.bursty import DataCenterTrafficGenerator
from repro.traffic.matrix import TrafficMatrixSequence


class TestQuantization:
    def test_quantized_ratios_are_multiples_and_sum_to_one(self, mesh4_paths, rng):
        config = TEConfiguration(mesh4_paths, rng.random(mesh4_paths.num_paths), normalize=True)
        quantized = quantize_configuration(config, total_weight=16)
        sums = mesh4_paths.sd_to_path @ quantized.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        scaled = quantized.split_ratios * 16
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_error_shrinks_with_budget(self, mesh4_paths, rng):
        config = TEConfiguration(mesh4_paths, rng.random(mesh4_paths.num_paths), normalize=True)
        coarse = quantization_error(config, total_weight=4)
        fine = quantization_error(config, total_weight=256)
        assert fine <= coarse
        assert fine <= 1.0 / 256 + 1e-12

    def test_error_bounded_by_one_unit(self, mesh4_paths, rng):
        config = TEConfiguration(mesh4_paths, rng.random(mesh4_paths.num_paths), normalize=True)
        assert quantization_error(config, total_weight=16) <= 1.0 / 16 + 1e-9

    def test_exact_ratios_are_preserved(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)  # thirds are not exact in /16
        quantized = quantize_configuration(config, total_weight=3)
        np.testing.assert_allclose(quantized.split_ratios, config.split_ratios)

    def test_mlu_impact_is_small_for_fine_budgets(self, mesh4_paths, rng):
        config = TEConfiguration(mesh4_paths, rng.random(mesh4_paths.num_paths), normalize=True)
        demand = rng.random(mesh4_paths.num_sd_pairs)
        base = max_link_utilization(mesh4_paths, config, demand)
        quantized = quantize_configuration(config, total_weight=128)
        after = max_link_utilization(mesh4_paths, quantized, demand)
        assert abs(after - base) / base < 0.1

    def test_invalid_budget_rejected(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)
        with pytest.raises(ValueError):
            quantize_configuration(config, total_weight=0)


class TestTrafficDriftDetector:
    def _traffic(self, topology, seed, burst_rate_scale=1.0):
        generator = DataCenterTrafficGenerator(topology, level="pod", seed=seed)
        return generator.generate(60)

    def test_no_drift_on_same_distribution(self, mesh4_topology):
        train = self._traffic(mesh4_topology, seed=1)
        recent = self._traffic(mesh4_topology, seed=1)
        detector = TrafficDriftDetector(train)
        assert detector.score(recent) < 0.05
        assert not detector.has_drifted(recent)

    def test_detects_shifted_traffic(self, mesh4_topology):
        train = self._traffic(mesh4_topology, seed=1)
        detector = TrafficDriftDetector(train, drift_threshold=0.2)
        # Concentrate all traffic on one pair: a drastic pattern change.
        shifted = np.zeros((30, 4, 4))
        shifted[:, 0, 1] = np.linspace(10, 50, 30)
        recent = TrafficMatrixSequence(shifted)
        assert detector.score(recent) > 0.2
        assert detector.has_drifted(recent)

    def test_score_of_a_fixed_pair_of_windows(self):
        def window(length, multiplier):
            # Small integers in closed form; ties in the variance ranking.
            t = np.arange(length)[:, None, None]
            i = np.arange(4)[None, :, None]
            j = np.arange(4)[None, None, :]
            demands = 1.0 + (t * (multiplier * i + j + 1)) % 7
            return TrafficMatrixSequence(demands * (i != j))

        detector = TrafficDriftDetector(window(20, 3))
        # Recorded with ``scipy.stats.spearmanr`` called from this module,
        # before it went through ``variance_rank_spearman``.
        assert detector.score(window(12, 5)) == 0.7026571441168976
        assert detector.score(window(20, 3)) == 0.0

    def test_shape_mismatch_rejected(self, mesh4_topology):
        train = self._traffic(mesh4_topology, seed=1)
        detector = TrafficDriftDetector(train)
        with pytest.raises(ValueError):
            detector.score(TrafficMatrixSequence(np.ones((5, 3, 3))))

    def test_threshold_validation(self, mesh4_topology):
        train = self._traffic(mesh4_topology, seed=1)
        with pytest.raises(ValueError):
            TrafficDriftDetector(train, drift_threshold=0.0)


class TestPerformanceDegradationDetector:
    def test_not_degraded_near_baseline(self):
        detector = PerformanceDegradationDetector(baseline=1.2, degradation_threshold=0.1)
        for _ in range(20):
            detector.observe(1.21)
        assert not detector.is_degraded()
        assert detector.degradation < 0.05

    def test_degradation_detected(self):
        detector = PerformanceDegradationDetector(baseline=1.2, degradation_threshold=0.1, window=10)
        for _ in range(10):
            detector.observe(1.5)
        assert detector.is_degraded()
        assert detector.degradation == pytest.approx(0.25)

    def test_rolling_window_forgets_old_spikes(self):
        detector = PerformanceDegradationDetector(baseline=1.0, degradation_threshold=0.2, window=5)
        for _ in range(5):
            detector.observe(2.0)
        assert detector.is_degraded()
        for _ in range(5):
            detector.observe(1.0)
        assert not detector.is_degraded()

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceDegradationDetector(baseline=0.0)
        detector = PerformanceDegradationDetector(baseline=1.0)
        with pytest.raises(ValueError):
            detector.observe(0.0)
        assert detector.degradation == 0.0


class TestRetrainingPolicy:
    def test_requires_at_least_one_trigger(self):
        with pytest.raises(ValueError):
            RetrainingPolicy()

    def test_periodic_fallback(self):
        policy = RetrainingPolicy(period=3)
        assert not policy.check().retrain
        assert not policy.check().retrain
        decision = policy.check()
        assert decision.retrain and decision.reason == "periodic"
        policy.notify_retrained()
        assert not policy.check().retrain

    def test_degradation_takes_priority(self, mesh4_topology):
        train = DataCenterTrafficGenerator(mesh4_topology, level="pod", seed=2).generate(40)
        degradation = PerformanceDegradationDetector(baseline=1.0, degradation_threshold=0.1, window=3)
        for _ in range(3):
            degradation.observe(1.5)
        policy = RetrainingPolicy(
            drift_detector=TrafficDriftDetector(train),
            degradation_detector=degradation,
            period=100,
        )
        decision = policy.check(train[:10])
        assert decision.retrain
        assert decision.reason == "performance degradation"

    def test_drift_trigger(self, mesh4_topology):
        train = DataCenterTrafficGenerator(mesh4_topology, level="pod", seed=2).generate(40)
        policy = RetrainingPolicy(drift_detector=TrafficDriftDetector(train, drift_threshold=0.2))
        shifted = np.zeros((20, 4, 4))
        shifted[:, 2, 3] = 100.0
        decision = policy.check(TrafficMatrixSequence(shifted))
        assert decision.retrain and decision.reason == "traffic drift"
        # A window drawn from the training data itself must not trigger.
        calm = policy.check(train)
        assert not calm.retrain and calm.reason == "none"
