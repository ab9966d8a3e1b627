"""Shared fixtures for the FIGRET reproduction test suite.

Fixtures deliberately use tiny topologies and short traces so the whole suite
runs quickly; the benchmark harness exercises the realistic sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.paths.ksp import build_ksp_path_set
from repro.topology import generators
from repro.traffic.bursty import DataCenterTrafficGenerator
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence


@pytest.fixture(scope="session")
def triangle_topology():
    """The Figure 3 triangle (3 nodes, capacity 2 everywhere)."""
    return generators.triangle(capacity=2.0)


@pytest.fixture(scope="session")
def triangle_paths(triangle_topology):
    """Two candidate paths per pair on the triangle (direct + detour)."""
    return build_ksp_path_set(triangle_topology, k=2)


@pytest.fixture(scope="session")
def mesh4_topology():
    """A 4-node full mesh (PoD-level style), capacity 10."""
    return generators.fully_connected(4, capacity=10.0)


@pytest.fixture(scope="session")
def mesh4_paths(mesh4_topology):
    """Three candidate paths per pair on the 4-node mesh."""
    return build_ksp_path_set(mesh4_topology, k=3)


@pytest.fixture(scope="session")
def line_topology():
    """A 4-node line topology (unique paths, no path diversity)."""
    return generators.line(4, capacity=5.0)


@pytest.fixture(scope="session")
def mesh4_traffic(mesh4_topology):
    """A short moderately bursty trace on the 4-node mesh."""
    return DataCenterTrafficGenerator(mesh4_topology, level="pod", seed=3).generate(80)


@pytest.fixture(scope="session")
def tor_scenario_small():
    """A small ToR-like scenario: 8-node random regular graph + bursty traffic."""
    topology = generators.random_regular(8, 3, capacity=10.0, seed=1)
    paths = build_ksp_path_set(topology, k=3)
    traffic = DataCenterTrafficGenerator(topology, level="tor", seed=2).generate(90)
    return topology, paths, traffic


@pytest.fixture(scope="session")
def solve_on():
    """``solve_mlu_lp`` on one solver class: the solver is not selectable, so
    equivalence tests call ``ScipyLinprogBackend`` / ``PersistentHighsBackend``
    directly with the bounds the public wrapper would resolve."""
    from repro.solvers.lp import _resolved_upper_bounds, constraint_structure
    from repro.te.config import TEConfiguration

    def solve(solver, path_set, demand, sensitivity_caps=None, path_mask=None):
        upper = _resolved_upper_bounds(
            path_set, constraint_structure(path_set), sensitivity_caps, path_mask
        )
        ratios, mlu = solver.solve(path_set, np.asarray(demand, dtype=float), upper)
        return TEConfiguration(path_set, ratios, normalize=True), mlu

    return solve


@pytest.fixture(scope="module", params=[None, 2], ids=["lp-sequential", "lp-pool-2"])
def lp_workers(request):
    """LP pool width for the caches an equivalence suite builds.

    A test that takes it runs twice: once on sequential caches and once on
    ``OptimalMLUCache(workers=2)``, whose cold batches fan out over
    :mod:`repro.pool` -- and must give the same bits.
    """
    return request.param


@pytest.fixture()
def rng():
    """A seeded NumPy random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def simple_sequence():
    """A deterministic 3-node traffic sequence with known statistics."""
    matrices = []
    for t in range(10):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0 + t          # steadily growing
        m[0, 2] = 5.0              # constant
        m[1, 2] = 2.0 if t % 2 == 0 else 4.0  # oscillating
        m[2, 0] = 0.5
        matrices.append(TrafficMatrix(m))
    return TrafficMatrixSequence(matrices, interval_seconds=60.0, name="simple")
