"""Property-based tests (hypothesis) on the core data structures and invariants.

These tests assert the structural invariants the paper's formulation relies
on: split ratios always form per-pair distributions, MLU is positively
homogeneous and monotone in demand, the LP never does worse than any feasible
configuration, rerouting preserves feasibility, and the autodiff engine agrees
with finite differences on random programs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import Tensor
from repro.paths.ksp import build_ksp_path_set
from repro.solvers.lp import solve_mlu_lp
from repro.te.config import TEConfiguration
from repro.te.failures import reroute_around_failures
from repro.te.mlu import link_loads, max_link_utilization
from repro.te.sensitivity import max_sensitivity_per_pair, path_sensitivities
from repro.topology import generators

# Session-wide small path set used by most properties (building it per example
# would dominate the runtime).
_MESH_PATHS = None


def _mesh_paths():
    global _MESH_PATHS
    if _MESH_PATHS is None:
        _MESH_PATHS = build_ksp_path_set(generators.fully_connected(4, capacity=5.0), k=3)
    return _MESH_PATHS


demand_vectors = hnp.arrays(
    dtype=np.float64,
    shape=12,
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
)

raw_ratio_vectors = hnp.arrays(
    dtype=np.float64,
    shape=36,
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


class TestConfigurationProperties:
    @settings(max_examples=50, deadline=None)
    @given(raw=raw_ratio_vectors)
    def test_normalisation_always_yields_distributions(self, raw):
        paths = _mesh_paths()
        config = TEConfiguration(paths, raw, normalize=True)
        sums = paths.sd_to_path @ config.split_ratios
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert (config.split_ratios >= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(raw=raw_ratio_vectors, demand=demand_vectors)
    def test_sensitivity_bounds_mlu_increase_under_single_pair_burst(self, raw, demand):
        """The core claim of Section 4.1: a burst delta on pair sd raises any
        edge utilisation by at most delta * S^max_sd."""
        paths = _mesh_paths()
        config = TEConfiguration(paths, raw, normalize=True)
        base = max_link_utilization(paths, config, demand)
        pair = 3
        delta = 7.0
        bursted = demand.copy()
        bursted[pair] += delta
        after = max_link_utilization(paths, config, bursted)
        smax = max_sensitivity_per_pair(paths, config)[pair]
        assert after <= base + delta * smax + 1e-9


class TestMluProperties:
    @settings(max_examples=50, deadline=None)
    @given(demand=demand_vectors, scale=st.floats(min_value=0.1, max_value=10.0))
    def test_positive_homogeneity(self, demand, scale):
        paths = _mesh_paths()
        config = TEConfiguration.uniform(paths)
        base = max_link_utilization(paths, config, demand)
        scaled = max_link_utilization(paths, config, demand * scale)
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(demand=demand_vectors, extra=demand_vectors)
    def test_monotonicity_in_demand(self, demand, extra):
        paths = _mesh_paths()
        config = TEConfiguration.uniform(paths)
        assert max_link_utilization(paths, config, demand + extra) >= (
            max_link_utilization(paths, config, demand) - 1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(demand=demand_vectors)
    def test_total_load_conservation(self, demand):
        """Flow placed on edges equals demand weighted by path hop counts."""
        paths = _mesh_paths()
        config = TEConfiguration.shortest_path(paths)
        loads = link_loads(paths, config, demand)
        # Shortest paths in a full mesh are all single-hop.
        assert loads.sum() == pytest.approx(demand.sum(), rel=1e-9, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(demand=demand_vectors, raw=raw_ratio_vectors)
    def test_lp_optimum_is_a_lower_bound(self, demand, raw):
        paths = _mesh_paths()
        _, optimal = solve_mlu_lp(paths, demand)
        candidate = TEConfiguration(paths, raw, normalize=True)
        assert optimal <= max_link_utilization(paths, candidate, demand) + 1e-7


class TestFailureProperties:
    @settings(max_examples=40, deadline=None)
    @given(raw=raw_ratio_vectors, edge_index=st.integers(min_value=0, max_value=11))
    def test_rerouting_preserves_distributions_and_avoids_failed_edge(self, raw, edge_index):
        paths = _mesh_paths()
        config = TEConfiguration(paths, raw, normalize=True)
        edge = paths.topology.edges[edge_index]
        failed = {(edge.src, edge.dst)}
        rerouted = reroute_around_failures(config, failed)
        sums = paths.sd_to_path @ rerouted.split_ratios
        assert np.allclose(sums, 1.0, atol=1e-9)
        mask = paths.restrict_to_working_paths(failed)
        # Pairs that still have a working path put no traffic on failed paths.
        for pair_idx, (s, d) in enumerate(paths.sd_pairs):
            indices = np.array(paths.path_indices_for(s, d))
            if mask[indices].any():
                assert (rerouted.split_ratios[indices[~mask[indices]]] <= 1e-12).all()


def _working_paths_by_loop(paths, failed_edges) -> np.ndarray:
    """The per-hop loop ``restrict_to_working_paths`` was before it became
    one sparse product: the reference the vectorised mask must equal."""
    mask = np.ones(paths.num_paths, dtype=bool)
    for p_idx, nodes in enumerate(paths.paths):
        for a, b in zip(nodes[:-1], nodes[1:]):
            if (a, b) in failed_edges:
                mask[p_idx] = False
                break
    return mask


_GEANT_PATHS = None


def _geant_paths():
    global _GEANT_PATHS
    if _GEANT_PATHS is None:
        from repro.datasets import load

        _GEANT_PATHS = load("geant_small", num_intervals=8).paths
    return _GEANT_PATHS


@st.composite
def failure_sets(draw, paths):
    """Random failed-edge sets: topology edges plus pairs absent from it."""
    n = paths.topology.num_nodes
    edges = [(e.src, e.dst) for e in paths.topology.edges]
    present = draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
    absent = draw(
        st.sets(
            st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)).filter(
                lambda edge: not paths.topology.has_edge(*edge)
            ),
            max_size=4,
        )
    )
    return present | absent


class TestWorkingPathMaskProperties:
    @pytest.mark.parametrize("path_set", [_mesh_paths, _geant_paths], ids=["mesh4", "geant_small"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_mask_equals_the_per_hop_loop(self, path_set, data):
        paths = path_set()
        failed = data.draw(failure_sets(paths))
        mask = paths.restrict_to_working_paths(failed)
        assert mask.dtype == bool and mask.shape == (paths.num_paths,)
        np.testing.assert_array_equal(mask, _working_paths_by_loop(paths, failed))

    @pytest.mark.parametrize("path_set", [_mesh_paths, _geant_paths], ids=["mesh4", "geant_small"])
    def test_no_failure_and_only_absent_edges_keep_every_path(self, path_set):
        paths = path_set()
        n = paths.topology.num_nodes
        for failed in (set(), {(0, 0), (n, n + 1), (-1, 2)}):
            assert paths.restrict_to_working_paths(failed).all()


class TestSensitivityProperties:
    @settings(max_examples=50, deadline=None)
    @given(raw=raw_ratio_vectors)
    def test_sensitivity_scales_with_ratio(self, raw):
        paths = _mesh_paths()
        config = TEConfiguration(paths, raw, normalize=True)
        sens = path_sensitivities(paths, config)
        # atol covers subnormal ratios (e.g. 5e-324), whose division by the
        # capacity underflows to zero and cannot round-trip exactly.
        np.testing.assert_allclose(
            sens * paths.path_capacities, config.split_ratios, atol=1e-300
        )

    @settings(max_examples=50, deadline=None)
    @given(raw=raw_ratio_vectors)
    def test_max_sensitivity_bounded_by_inverse_capacity(self, raw):
        paths = _mesh_paths()
        config = TEConfiguration(paths, raw, normalize=True)
        smax = max_sensitivity_per_pair(paths, config)
        assert (smax <= 1.0 / paths.path_capacities.min() + 1e-12).all()


class TestAutodiffProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        x=hnp.arrays(
            dtype=np.float64,
            shape=(2, 5),
            elements=st.floats(min_value=0.05, max_value=3.0),
        )
    )
    def test_normalisation_then_sum_gradient_is_zero(self, x):
        """d(sum of per-group normalised values)/dx = 0: the sums are constant 1."""
        seg = np.array([0, 0, 1, 1, 1])
        t = Tensor(x, requires_grad=True)
        sums = t.segment_sum(seg, 2)
        normalised = t / sums.gather_last(seg)
        normalised.sum().backward()
        np.testing.assert_allclose(t.grad, 0.0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        x=hnp.arrays(
            dtype=np.float64,
            shape=(3, 4),
            # Keep inputs away from ReLU's kink at 0, where finite differences
            # and the (sub)gradient legitimately disagree.
            elements=st.floats(min_value=-2.0, max_value=2.0).filter(lambda v: abs(v) > 1e-2),
        )
    )
    def test_relu_sigmoid_chain_gradient_matches_finite_differences(self, x):
        weights = np.linspace(0.5, 2.0, 4)

        def forward(arr: np.ndarray) -> float:
            t = Tensor(arr)
            return float((t.relu().sigmoid() * weights).sum().item())

        t = Tensor(x, requires_grad=True)
        (t.relu().sigmoid() * weights).sum().backward()
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                plus, minus = x.copy(), x.copy()
                plus[i, j] += eps
                minus[i, j] -= eps
                numeric[i, j] = (forward(plus) - forward(minus)) / (2 * eps)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(
        x=hnp.arrays(
            dtype=np.float64,
            shape=6,
            elements=st.floats(min_value=0.1, max_value=5.0),
        ),
        scale=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_gradient_linearity(self, x, scale):
        """grad(scale * f) == scale * grad(f)."""
        a = Tensor(x, requires_grad=True)
        (a * a).sum().backward()
        grad_once = a.grad.copy()
        b = Tensor(x, requires_grad=True)
        ((b * b).sum() * scale).backward()
        np.testing.assert_allclose(b.grad, scale * grad_once, rtol=1e-9)
