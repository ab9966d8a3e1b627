"""Unit tests for TE configurations and MLU computation (repro.te)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.te.config import TEConfiguration
from repro.te.mlu import link_loads, link_utilization, max_link_utilization


class TestTEConfiguration:
    def test_uniform_sums_to_one(self, mesh4_paths):
        config = TEConfiguration.uniform(mesh4_paths)
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0)

    def test_shortest_path_puts_everything_on_first_path(self, mesh4_paths):
        config = TEConfiguration.shortest_path(mesh4_paths)
        for s, d in mesh4_paths.topology.sd_pairs():
            ratios = config.ratios_for(s, d)
            assert ratios[0] == 1.0
            np.testing.assert_allclose(ratios[1:], 0.0)

    def test_normalization_rescales(self, triangle_paths):
        raw = np.full(triangle_paths.num_paths, 2.0)
        config = TEConfiguration(triangle_paths, raw, normalize=True)
        sums = triangle_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0)

    def test_all_zero_pair_becomes_uniform(self, triangle_paths):
        raw = np.zeros(triangle_paths.num_paths)
        config = TEConfiguration(triangle_paths, raw, normalize=True)
        for s, d in triangle_paths.topology.sd_pairs():
            ratios = config.ratios_for(s, d)
            np.testing.assert_allclose(ratios, 1.0 / len(ratios))

    def test_strict_mode_rejects_bad_sums(self, triangle_paths):
        raw = np.full(triangle_paths.num_paths, 0.4)
        with pytest.raises(ValueError, match="sum"):
            TEConfiguration(triangle_paths, raw, normalize=False)

    def test_negative_ratios_rejected(self, triangle_paths):
        raw = np.full(triangle_paths.num_paths, 0.5)
        raw[0] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            TEConfiguration(triangle_paths, raw)

    def test_wrong_length_rejected(self, triangle_paths):
        with pytest.raises(ValueError, match="split ratios"):
            TEConfiguration(triangle_paths, np.ones(3))

    def test_copy_is_independent(self, triangle_paths):
        config = TEConfiguration.uniform(triangle_paths)
        clone = config.copy()
        clone.split_ratios[0] = 0.123
        assert config.split_ratios[0] != 0.123


    def test_hypothesis_normalisation_matches_the_per_pair_loop(self):
        # The loop TEConfiguration._normalized used to be, kept as the
        # reference: the vectorised form does the same IEEE divisions, so
        # the results are equal bit for bit (pairs here have 3 or 4 paths).
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.paths.ksp import build_ksp_path_set
        from repro.topology import generators

        paths = build_ksp_path_set(generators.wan_like(6, 7, seed=2), k=4)

        def per_pair_loop(ratios, sums):
            normalized = ratios.copy()
            for pair_idx, (src, dst) in enumerate(paths.sd_pairs):
                indices = list(paths.path_indices_for(src, dst))
                total = sums[pair_idx]
                if total <= TEConfiguration.SUM_TOLERANCE:
                    normalized[indices] = 1.0 / len(indices)
                else:
                    normalized[indices] = ratios[indices] / total
            return normalized

        ratio = st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 5.0))

        @settings(max_examples=60, deadline=None)
        @given(st.lists(ratio, min_size=paths.num_paths, max_size=paths.num_paths))
        def check(raw):
            ratios = np.array(raw)
            sums = paths.sd_to_path @ ratios
            config = TEConfiguration(paths, ratios, normalize=True)
            assert np.array_equal(config.split_ratios, per_pair_loop(ratios, sums))

        check()


class TestMLU:
    def test_figure3_scheme1_normal(self, triangle_paths):
        """TE scheme 1 (all shortest paths) on the normal demand: MLU = 0.5."""
        config = TEConfiguration.shortest_path(triangle_paths)
        demand = np.zeros((3, 3))
        demand[0, 1] = demand[0, 2] = demand[1, 2] = 1.0
        dv = triangle_paths.demand_vector(demand)
        assert max_link_utilization(triangle_paths, config, dv) == pytest.approx(0.5)

    def test_figure3_scheme1_burst(self, triangle_paths):
        """TE scheme 1 under burst 1 (A->B demand = 4): MLU = 2."""
        config = TEConfiguration.shortest_path(triangle_paths)
        demand = np.zeros((3, 3))
        demand[0, 1] = 4.0
        demand[0, 2] = demand[1, 2] = 1.0
        dv = triangle_paths.demand_vector(demand)
        assert max_link_utilization(triangle_paths, config, dv) == pytest.approx(2.0)

    def test_figure3_scheme2_even_split(self, triangle_paths):
        """TE scheme 2 (50/50 split everywhere): normal MLU = 0.75, burst MLU = 1.5."""
        config = TEConfiguration.uniform(triangle_paths)
        normal = np.zeros((3, 3))
        normal[0, 1] = normal[0, 2] = normal[1, 2] = 1.0
        burst = normal.copy()
        burst[0, 1] = 4.0
        assert max_link_utilization(
            triangle_paths, config, triangle_paths.demand_vector(normal)
        ) == pytest.approx(0.75)
        assert max_link_utilization(
            triangle_paths, config, triangle_paths.demand_vector(burst)
        ) == pytest.approx(1.5)

    def test_link_loads_sum_matches_demand_times_hops(self, mesh4_paths):
        config = TEConfiguration.shortest_path(mesh4_paths)
        demand = np.ones(mesh4_paths.num_sd_pairs)
        loads = link_loads(mesh4_paths, config, demand)
        # With shortest (direct) paths, each demand loads exactly one edge.
        assert loads.sum() == pytest.approx(demand.sum())

    def test_batch_evaluation_matches_individual(self, mesh4_paths, rng):
        config = TEConfiguration.uniform(mesh4_paths)
        demands = rng.random((5, mesh4_paths.num_sd_pairs))
        batch = max_link_utilization(mesh4_paths, config, demands)
        singles = [max_link_utilization(mesh4_paths, config, d) for d in demands]
        np.testing.assert_allclose(batch, singles)

    def test_utilization_scales_inversely_with_capacity(self, mesh4_paths, rng):
        config = TEConfiguration.uniform(mesh4_paths)
        demand = rng.random(mesh4_paths.num_sd_pairs)
        base = link_utilization(mesh4_paths, config, demand)
        from repro.paths.ksp import build_ksp_path_set

        scaled_topo = mesh4_paths.topology.with_scaled_capacities(2.0)
        scaled_paths = build_ksp_path_set(scaled_topo, k=3)
        scaled_config = TEConfiguration(scaled_paths, config.split_ratios, normalize=False)
        scaled = link_utilization(scaled_paths, scaled_config, demand)
        np.testing.assert_allclose(scaled, base / 2.0)

    def test_accepts_raw_ratio_array(self, triangle_paths):
        ratios = TEConfiguration.uniform(triangle_paths).split_ratios
        demand = np.ones(triangle_paths.num_sd_pairs)
        assert max_link_utilization(triangle_paths, ratios, demand) > 0

    def test_mlu_linear_in_demand_scale(self, mesh4_paths, rng):
        config = TEConfiguration.uniform(mesh4_paths)
        demand = rng.random(mesh4_paths.num_sd_pairs)
        mlu = max_link_utilization(mesh4_paths, config, demand)
        assert max_link_utilization(mesh4_paths, config, demand * 3.0) == pytest.approx(3.0 * mlu)
