"""Unit tests for Desensitization-based TE and the heuristic-F variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.desensitization import (
    DEFAULT_SENSITIVITY_THRESHOLD,
    DesensitizationTE,
    FaultAwareDesensitizationTE,
)
from repro.solvers.heuristic_f import LinearSensitivityTE, PiecewiseSensitivityTE
from repro.te.mlu import max_link_utilization
from repro.te.sensitivity import max_sensitivity_per_pair


class TestDesensitizationTE:
    def test_sensitivity_threshold_enforced(self, mesh4_paths, mesh4_traffic):
        scheme = DesensitizationTE(mesh4_paths, sensitivity_threshold=0.5)
        history = mesh4_traffic.flat_demands()[:12]
        config = scheme.configure(history)
        smax = max_sensitivity_per_pair(mesh4_paths, config, normalized=True)
        assert smax.max() <= 0.5 + 1e-6

    def test_anticipated_matrix_is_window_peak(self, mesh4_paths, mesh4_traffic):
        scheme = DesensitizationTE(mesh4_paths, window=5)
        history = mesh4_traffic.flat_demands()[:20]
        anticipated = scheme.anticipated_demand(history)
        np.testing.assert_allclose(anticipated, history[-5:].max(axis=0))

    def test_configure_solves_for_the_window_peak(self, mesh4_paths, mesh4_traffic):
        scheme = DesensitizationTE(mesh4_paths, window=5)
        history = mesh4_traffic.flat_demands()[:20]
        config = scheme.configure(history)
        peak_only = scheme.configure(history[-5:].max(axis=0)[None, :])
        np.testing.assert_array_equal(config.split_ratios, peak_only.split_ratios)

    def test_hedging_spreads_traffic(self, mesh4_paths, mesh4_traffic):
        scheme = DesensitizationTE(mesh4_paths, sensitivity_threshold=0.5)
        history = mesh4_traffic.flat_demands()[:12]
        config = scheme.configure(history)
        # With a 0.5 cap every pair must use at least two paths.
        for s, d in mesh4_paths.topology.sd_pairs():
            ratios = config.ratios_for(s, d)
            assert (ratios > 1e-6).sum() >= 2

    def test_infeasible_threshold_relaxed_not_failing(self, triangle_paths, mesh4_traffic):
        # The triangle path set has only 2 paths per pair; a 0.1 threshold is
        # infeasible and must be relaxed per pair instead of crashing.
        scheme = DesensitizationTE(triangle_paths, sensitivity_threshold=0.1)
        history = np.ones((12, triangle_paths.num_sd_pairs))
        config = scheme.configure(history)
        sums = triangle_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_parameter_validation(self, mesh4_paths):
        with pytest.raises(ValueError):
            DesensitizationTE(mesh4_paths, sensitivity_threshold=0.0)
        with pytest.raises(ValueError):
            DesensitizationTE(mesh4_paths, window=0)

    def test_default_threshold_matches_appendix(self):
        assert DEFAULT_SENSITIVITY_THRESHOLD == pytest.approx(2.0 / 3.0)


class TestFaultAwareDesensitizationTE:
    def test_avoids_failed_paths(self, mesh4_paths, mesh4_traffic):
        failed = {(0, 1), (1, 0)}
        scheme = FaultAwareDesensitizationTE(mesh4_paths, failed_edges=failed)
        history = mesh4_traffic.flat_demands()[:12]
        config = scheme.configure(history)
        mask = mesh4_paths.restrict_to_working_paths(failed)
        assert (config.split_ratios[~mask] <= 1e-9).all()

    def test_set_failures_updates(self, mesh4_paths, mesh4_traffic):
        scheme = FaultAwareDesensitizationTE(mesh4_paths)
        scheme.set_failures({(2, 3), (3, 2)})
        history = mesh4_traffic.flat_demands()[:12]
        config = scheme.configure(history)
        mask = mesh4_paths.restrict_to_working_paths({(2, 3), (3, 2)})
        assert (config.split_ratios[~mask] <= 1e-9).all()

    def test_name_distinct_from_base(self, mesh4_paths):
        assert FaultAwareDesensitizationTE(mesh4_paths).name == "FA Des TE"
        assert DesensitizationTE(mesh4_paths).name == "Des TE"


class TestHeuristicF:
    def test_linear_thresholds_monotone_in_variance(self, mesh4_paths, mesh4_traffic):
        scheme = LinearSensitivityTE(mesh4_paths, min_threshold=0.4, max_threshold=0.9)
        scheme.precompute(mesh4_traffic)
        variance = mesh4_traffic.pair_variance()
        thresholds = scheme._thresholds_from_variance(variance)
        order = np.argsort(variance)
        assert (np.diff(thresholds[order]) <= 1e-12).all()
        assert thresholds.max() == pytest.approx(0.9)
        assert thresholds.min() == pytest.approx(0.4)

    def test_piecewise_two_levels(self, mesh4_paths, mesh4_traffic):
        scheme = PiecewiseSensitivityTE(
            mesh4_paths, min_threshold=0.5, max_threshold=0.8, breakpoint=0.5
        )
        scheme.precompute(mesh4_traffic)
        thresholds = scheme._thresholds_from_variance(mesh4_traffic.pair_variance())
        assert set(np.round(thresholds, 6)) <= {0.5, 0.8}

    def test_bursty_pairs_get_stricter_constraints(self, mesh4_paths, mesh4_traffic):
        scheme = LinearSensitivityTE(mesh4_paths, min_threshold=0.34, max_threshold=0.9)
        scheme.precompute(mesh4_traffic)
        history = mesh4_traffic.flat_demands()[:12]
        config = scheme.configure(history)
        smax = max_sensitivity_per_pair(mesh4_paths, config, normalized=True)
        variance = mesh4_traffic.pair_variance()
        most_bursty = int(np.argmax(variance))
        assert smax[most_bursty] <= 0.34 + 1e-6

    def test_relaxed_constraints_do_not_hurt_average(self, mesh4_paths, mesh4_traffic):
        """Appendix C: relaxing caps for stable pairs cannot worsen the anticipated-matrix MLU."""
        strict = DesensitizationTE(mesh4_paths, sensitivity_threshold=0.5)
        relaxed = LinearSensitivityTE(mesh4_paths, min_threshold=0.5, max_threshold=1.0)
        relaxed.precompute(mesh4_traffic)
        flat = mesh4_traffic.flat_demands()
        history = flat[:12]
        target = flat[12]
        strict_mlu = max_link_utilization(mesh4_paths, strict.configure(history), history.max(axis=0))
        relaxed_mlu = max_link_utilization(mesh4_paths, relaxed.configure(history), history.max(axis=0))
        assert relaxed_mlu <= strict_mlu + 1e-9

    def test_parameter_validation(self, mesh4_paths):
        with pytest.raises(ValueError):
            LinearSensitivityTE(mesh4_paths, min_threshold=0.9, max_threshold=0.4)
        with pytest.raises(ValueError):
            PiecewiseSensitivityTE(mesh4_paths, breakpoint=1.5)
        with pytest.raises(ValueError):
            LinearSensitivityTE(mesh4_paths, min_threshold=0.0, max_threshold=0.5)
