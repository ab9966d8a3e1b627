"""Unit tests for path sensitivity and link-failure rerouting (repro.te)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Dote, TrainingConfig
from repro.te.config import TEConfiguration
from repro.te.failures import (
    reroute_around_failures,
    reroute_ratios_around_failures,
    sample_failed_links,
)
from repro.te.sensitivity import (
    max_sensitivity_per_pair,
    normalized_path_capacities,
    path_sensitivities,
)
from repro.traffic.windows import build_history_windows


class TestSensitivity:
    def test_sensitivity_definition(self, triangle_paths):
        config = TEConfiguration.uniform(triangle_paths)
        sens = path_sensitivities(triangle_paths, config)
        np.testing.assert_allclose(sens, config.split_ratios / triangle_paths.path_capacities)

    def test_normalized_capacities_min_is_one(self, mesh4_paths):
        caps = normalized_path_capacities(mesh4_paths)
        assert caps.min() == pytest.approx(1.0)

    def test_normalized_sensitivity_of_full_allocation_is_one(self, mesh4_paths):
        config = TEConfiguration.shortest_path(mesh4_paths)
        sens = path_sensitivities(mesh4_paths, config, normalized=True)
        # Direct paths carry ratio 1 over normalised capacity 1.
        assert sens.max() == pytest.approx(1.0)

    def test_max_sensitivity_per_pair_shape_and_value(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)
        smax = max_sensitivity_per_pair(mesh4_paths, config)
        assert smax.shape == (mesh4_paths.num_sd_pairs,)
        sens = path_sensitivities(mesh4_paths, config)
        for pair_idx, (s, d) in enumerate(mesh4_paths.sd_pairs):
            indices = list(mesh4_paths.path_indices_for(s, d))
            assert smax[pair_idx] == pytest.approx(sens[indices].max())

    def test_hedging_reduces_max_sensitivity(self, mesh4_paths):
        shortest = TEConfiguration.shortest_path(mesh4_paths)
        uniform = TEConfiguration.uniform(mesh4_paths)
        assert (
            max_sensitivity_per_pair(mesh4_paths, uniform).max()
            < max_sensitivity_per_pair(mesh4_paths, shortest).max()
        )


class TestFailureRerouting:
    def test_proportional_redistribution(self, mesh4_paths):
        # Paper example: ratios (0.5, 0.3, 0.2); first path fails -> (0, 0.6, 0.4).
        ratios = np.zeros(mesh4_paths.num_paths)
        for s, d in mesh4_paths.topology.sd_pairs():
            idx = mesh4_paths.path_indices_for(s, d)
            ratios[idx[0]], ratios[idx[1]], ratios[idx[2]] = 0.5, 0.3, 0.2
        config = TEConfiguration(mesh4_paths, ratios, normalize=False)
        # Fail the direct link 0->1 (the first candidate path of pair (0, 1)).
        rerouted = reroute_around_failures(config, {(0, 1)})
        new = rerouted.ratios_for(0, 1)
        np.testing.assert_allclose(new, [0.0, 0.6, 0.4])

    def test_uniform_redistribution_when_survivors_had_zero(self, mesh4_paths):
        # Paper example: ratios (1, 0, 0); first path fails -> (0, 0.5, 0.5).
        config = TEConfiguration.shortest_path(mesh4_paths)
        rerouted = reroute_around_failures(config, {(0, 1)})
        np.testing.assert_allclose(rerouted.ratios_for(0, 1), [0.0, 0.5, 0.5])

    def test_unaffected_pairs_unchanged(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)
        rerouted = reroute_around_failures(config, {(0, 1)})
        np.testing.assert_allclose(rerouted.ratios_for(2, 3), config.ratios_for(2, 3))

    def test_result_remains_valid_distribution(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)
        rerouted = reroute_around_failures(config, {(0, 1), (1, 0), (2, 3)})
        sums = mesh4_paths.sd_to_path @ rerouted.split_ratios
        np.testing.assert_allclose(sums, 1.0)

    def test_all_paths_failed_keeps_uniform(self, triangle_paths):
        config = TEConfiguration.shortest_path(triangle_paths)
        # Kill both candidate paths of pair (0, 1): direct edge and via node 2.
        rerouted = reroute_around_failures(config, {(0, 1), (2, 1)})
        np.testing.assert_allclose(rerouted.ratios_for(0, 1), [0.5, 0.5])

    def test_no_failures_is_identity(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)
        rerouted = reroute_around_failures(config, set())
        np.testing.assert_allclose(rerouted.split_ratios, config.split_ratios)


class TestVectorisedRerouting:
    """``reroute_ratios_around_failures`` on raw ratio rows."""

    @staticmethod
    def _rows(paths, rng, count=6):
        return np.stack(
            [
                TEConfiguration(paths, rng.random(paths.num_paths)).split_ratios
                for _ in range(count)
            ]
        )

    @staticmethod
    def _mask(paths):
        # Every path of pair (0, 1) fails (the partitioned-uniform branch),
        # and one path of pair (0, 2) (proportional redistribution).
        mask = np.ones(paths.num_paths, dtype=bool)
        mask[list(paths.path_indices_for(0, 1))] = False
        mask[paths.path_indices_for(0, 2)[0]] = False
        return mask

    def test_partitioned_pair_splits_uniformly(self, mesh4_paths, rng):
        rerouted = reroute_ratios_around_failures(
            mesh4_paths, self._rows(mesh4_paths, rng), self._mask(mesh4_paths)
        )
        partitioned = list(mesh4_paths.path_indices_for(0, 1))
        np.testing.assert_array_equal(rerouted[:, partitioned], 1.0 / len(partitioned))
        assert not rerouted[:, mesh4_paths.path_indices_for(0, 2)[0]].any()

    def test_single_row_keeps_its_shape(self, mesh4_paths, rng):
        rows, mask = self._rows(mesh4_paths, rng), self._mask(mesh4_paths)
        batch = reroute_ratios_around_failures(mesh4_paths, rows, mask)
        single = reroute_ratios_around_failures(mesh4_paths, rows[0], mask)
        assert single.shape == rows[0].shape
        np.testing.assert_array_equal(single, batch[0])

    def test_all_working_mask_passes_through(self, mesh4_paths, rng):
        rows = self._rows(mesh4_paths, rng)
        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        np.testing.assert_array_equal(
            reroute_ratios_around_failures(mesh4_paths, rows, mask), rows
        )

    def test_zero_surviving_mass_goes_uniform(self, mesh4_paths):
        ratios = np.zeros(mesh4_paths.num_paths)
        indices = list(mesh4_paths.path_indices_for(0, 1))
        ratios[indices[0]] = 1.0
        for src, dst in mesh4_paths.sd_pairs:
            if (src, dst) != (0, 1):
                ratios[mesh4_paths.path_indices_for(src, dst)[0]] = 1.0
        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        mask[indices[0]] = False
        rerouted = reroute_ratios_around_failures(mesh4_paths, ratios, mask)
        survivors = indices[1:]
        np.testing.assert_array_equal(rerouted[survivors], 1.0 / len(survivors))
        assert rerouted[indices[0]] == 0.0

    def test_configure_batch_rows_are_float64_splits(self, mesh4_paths, mesh4_traffic):
        """The batched neural ratios the failure replay reroutes."""
        history = 4
        config = TrainingConfig(
            epochs=2, history_len=history, hidden_sizes=(16, 16), normalize_by_optimal=False
        )
        scheme = Dote(mesh4_paths, config)
        scheme.precompute(mesh4_traffic[:48])
        windows, _ = build_history_windows(mesh4_traffic[:16].flat_demands(), history)
        ratios = scheme.configure_batch(windows)
        assert ratios.dtype == np.float64
        pair_sums = (mesh4_paths.sd_to_path @ ratios.T).T
        np.testing.assert_allclose(pair_sums, 1.0, atol=1e-12)


class TestSampleFailedLinks:
    def test_bidirectional_sampling(self, mesh4_topology, rng):
        failed = sample_failed_links(mesh4_topology, 2, rng)
        assert len(failed) == 4  # two physical links, both directions
        for a, b in failed:
            assert (b, a) in failed

    def test_failing_every_link_fails_every_directed_edge(self, mesh4_topology, rng):
        links = {tuple(sorted((e.src, e.dst))) for e in mesh4_topology.edges}
        failed = sample_failed_links(mesh4_topology, len(links), rng)
        assert failed == {(e.src, e.dst) for e in mesh4_topology.edges}

    def test_too_many_failures_rejected(self, triangle_topology, rng):
        with pytest.raises(ValueError):
            sample_failed_links(triangle_topology, 100, rng)

    def test_failed_edges_exist_in_topology(self, mesh4_topology, rng):
        failed = sample_failed_links(mesh4_topology, 2, rng)
        for a, b in failed:
            assert mesh4_topology.has_edge(a, b)
