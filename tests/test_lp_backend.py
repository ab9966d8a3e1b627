"""Unit tests for the one LP solver rule and the solvers behind it."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize._highspy import _core as scipy_core

import repro
from repro.solvers import lp_backend as lpb
from repro.solvers.lp import count_lp_solves, solve_mlu_lp, solve_mlu_lp_batch
from repro.solvers.lp_backend import (
    AutoLPBackend,
    PersistentHighsBackend,
    ScipyLinprogBackend,
    resolve_lp_backend,
)


@pytest.fixture()
def fresh_solver(monkeypatch):
    """Build the process's composite afresh (and drop it again afterwards)."""
    monkeypatch.setattr(lpb, "_SOLVER", None)
    return lpb


@pytest.fixture()
def value_side(monkeypatch):
    """Swap the composite's value solver; returns the setter."""

    def swap(solver):
        monkeypatch.setattr(resolve_lp_backend(), "_values", solver)
        return solver

    return swap


class TestSelection:
    def test_default_is_auto(self, fresh_solver):
        assert resolve_lp_backend(None).name == "auto"
        assert isinstance(resolve_lp_backend(None), AutoLPBackend)
        assert isinstance(resolve_lp_backend()._vertices, ScipyLinprogBackend)
        assert isinstance(resolve_lp_backend()._values, PersistentHighsBackend)

    def test_instances_are_cached(self, fresh_solver):
        assert resolve_lp_backend() is resolve_lp_backend()

    def test_resolve_passthrough_and_lookup(self, fresh_solver):
        # None passes through to the one composite; there is nothing to look
        # up, by name or by instance.
        assert resolve_lp_backend(None) is resolve_lp_backend()
        for choice in ("scipy", "highs", "auto", ScipyLinprogBackend()):
            with pytest.raises(TypeError, match="not selectable"):
                resolve_lp_backend(choice)

    def test_auto_prefers_highs(self, fresh_solver, mesh4_paths, rng, monkeypatch):
        # ...for what has one answer: value-only solves run on the composite's
        # persistent model, vertex-returning solves on its linprog side.  The
        # methods are wrapped on their classes, the way perfbench's tracer
        # does it, so this also pins that those names are what runs.
        ran = []

        def record(cls, method):
            original = getattr(cls, method)

            def wrapper(self, *args):
                ran.append((self, method))
                return original(self, *args)

            monkeypatch.setattr(cls, method, wrapper)

        for cls in (ScipyLinprogBackend, PersistentHighsBackend):
            record(cls, "solve")
            record(cls, "solve_mlu")
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        solve_mlu_lp(mesh4_paths, demand)
        solve_mlu_lp_batch(mesh4_paths, demand)
        solver = resolve_lp_backend()
        assert ran == [(solver._vertices, "solve"), (solver._values, "solve_mlu")]

    def test_an_installed_highspy_is_never_bound(self, monkeypatch, mesh4_paths, rng):
        # Both sides run scipy's vendored core whatever else is installed: a
        # standalone highspy in sys.modules is never touched, and normalisers
        # and vertices come out as they do without it, bit for bit.
        from repro.solvers.lp import _ratio_upper_bounds

        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        mask[::3] = False  # every pair loses its first (shortest) path
        uppers = [_ratio_upper_bounds(mesh4_paths, None, m) for m in (None, mask)]
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        demands[1, ::2] = 0.0

        def run(solver):
            solved = []
            for demand in demands:
                for upper in uppers:
                    ratios, mlu = solver.solve(mesh4_paths, demand, upper)
                    value = solver.solve_mlu(mesh4_paths, demand, upper)
                    solved.append((value, ratios.tobytes(), mlu))
            return solved

        reference = run(AutoLPBackend())

        def used(name):
            raise AssertionError(f"standalone highspy's {name} was used")

        stub = types.ModuleType("highspy")
        stub.__getattr__ = used
        monkeypatch.setitem(sys.modules, "highspy", stub)
        solver = AutoLPBackend()
        assert run(solver) == reference
        assert lpb._core is scipy_core
        [vertex_model] = solver._vertices._models.values()
        assert isinstance(vertex_model._lp, scipy_core.HighsLp)
        assert len(solver._values._models) == len(uppers)
        for value_model in solver._values._models.values():
            assert isinstance(value_model._solver, scipy_core._Highs)


def test_lp_backend_variable_fails_loudly():
    """The solver is not selectable: a set ``REPRO_LP_BACKEND`` (even a
    once-valid name) stops the import instead of being silently ignored,
    and an empty one counts as unset."""
    src = str(Path(repro.__file__).resolve().parents[1])

    def import_with(value):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
            REPRO_LP_BACKEND=value,
        )
        return subprocess.run(
            [sys.executable, "-c", "import repro.solvers.lp_backend"],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = import_with("scipy")
    assert done.returncode != 0
    assert "RuntimeError" in done.stderr and "REPRO_LP_BACKEND" in done.stderr
    assert "no longer selectable" in done.stderr
    assert import_with("").returncode == 0


def _linprog_reference(path_set, demand, upper):
    """The parent's solve, spelled out: what ``linprog`` must keep returning."""
    from scipy.optimize import linprog

    from repro.solvers.lp import constraint_structure

    structure = constraint_structure(path_set)
    result = linprog(
        structure.cost,
        A_ub=structure.a_ub(demand),
        b_ub=structure.b_ub,
        A_eq=structure.a_eq,
        b_eq=structure.b_eq,
        bounds=structure.bounds_array(upper),
        method="highs",
    )
    return result.x[: path_set.num_paths], float(result.x[-1])


def _scenario_cases(name):
    """``(path set, cases)`` on a bundled scenario: three test-trace demands
    (one with zero-demand pairs) x no bounds, Des TE's caps, a two-link
    failure mask, and both."""
    from repro import datasets
    from repro.solvers.desensitization import DesensitizationTE
    from repro.solvers.lp import _ratio_upper_bounds

    scenario = datasets.load(name, seed=7)
    paths = scenario.paths
    des_te_caps = DesensitizationTE(paths)._caps
    failed = paths.restrict_to_working_paths(
        {(edge.src, edge.dst) for edge in paths.topology.edges[:2]}
    )
    assert not failed.all()
    bounds = [(None, None), (des_te_caps, None), (None, failed), (des_te_caps, failed)]
    _, test = scenario.split()
    demands = test.flat_demands()[:3].copy()
    demands[1, ::2] = 0.0
    return paths, [
        (demand, caps, mask, _ratio_upper_bounds(paths, caps, mask))
        for demand in demands
        for caps, mask in bounds
    ]


class TestDefaultKeepsPublishedValues:
    """What the split default may and may not change."""

    @pytest.fixture()
    def cases(self, mesh4_paths, rng):
        from repro.solvers.lp import _ratio_upper_bounds

        num_paths = mesh4_paths.num_paths
        mask = np.ones(num_paths, dtype=bool)
        mask[::3] = False  # every pair loses its first (shortest) path
        bounds = [(None, None), (np.full(num_paths, 0.5), None), (None, mask)]
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        demands[1, ::2] = 0.0
        return [
            (demand, caps, mask, _ratio_upper_bounds(mesh4_paths, caps, mask))
            for demand in demands
            for caps, mask in bounds
        ]

    def test_default_solve_returns_linprog_ratios_bit_for_bit(
        self, fresh_solver, mesh4_paths, cases, solve_on
    ):
        from repro.solvers.lp import OptimalMLUCache, omniscient_mlu
        from repro.te.config import TEConfiguration

        scenarios = [(mesh4_paths, cases)]
        scenarios += [_scenario_cases(name) for name in ("geant_small", "meta_tor_db_small")]
        for paths, scenario_cases in scenarios:
            for demand, caps, mask, upper in scenario_cases:
                ratios, mlu = _linprog_reference(paths, demand, upper)
                direct, direct_mlu = ScipyLinprogBackend().solve(paths, demand, upper)
                assert direct.tobytes() == ratios.tobytes() and direct_mlu == mlu
                config, solved = solve_mlu_lp(
                    paths, demand, sensitivity_caps=caps, path_mask=mask
                )
                assert solved == mlu
                expected = TEConfiguration(paths, ratios, normalize=True)
                assert np.array_equal(config.split_ratios, expected.split_ratios)
                named, _ = solve_on(
                    ScipyLinprogBackend(), paths, demand, sensitivity_caps=caps, path_mask=mask
                )
                assert np.array_equal(config.split_ratios, named.split_ratios)
                # Only the normaliser moves, and only in its last bits -- and
                # omniscient_mlu serves the very value the cache does.
                if caps is None:
                    cached = OptimalMLUCache().optimal_mlus(paths, demand, path_mask=mask)[0]
                    assert cached == pytest.approx(max(mlu, 1e-12), rel=1e-12)
                if caps is None and mask is None:
                    assert omniscient_mlu(paths, demand) == cached


class TestVertexSolver:
    """Vertex solves hand scipy's own HiGHS core what linprog would."""

    def test_core_gets_linprogs_inputs(self, monkeypatch, mesh4_paths, rng):
        # The arrays linprog hands its HiGHS wrapper, byte for byte: the
        # stacked pattern, the per-demand values (zero-demand pairs included),
        # the row bounds and the column bounds.
        from scipy.optimize import _linprog_highs

        from repro.solvers.lp import _ratio_upper_bounds, constraint_structure

        captured = []
        original = _linprog_highs._highs_wrapper

        def spy(*args):
            captured.append(args)
            return original(*args)

        monkeypatch.setattr(_linprog_highs, "_highs_wrapper", spy)
        structure = constraint_structure(mesh4_paths)
        upper = _ratio_upper_bounds(mesh4_paths, np.full(mesh4_paths.num_paths, 0.5), None)
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        demand[::2] = 0.0
        _linprog_reference(mesh4_paths, demand, upper)
        [(cost, indptr, indices, data, lhs, rhs, lower, col_upper, _, _)] = captured
        inf = scipy_core.kHighsInf
        sent = {
            "cost": structure.cost,
            "indptr": structure.stacked_indptr,
            "indices": structure.stacked_indices,
            "data": structure.stacked_data(demand),
            "lhs": lpb._replace_inf(structure.stacked_row_lower, inf),
            "rhs": lpb._replace_inf(structure.stacked_row_upper, inf),
            "lower": np.zeros(structure.num_paths + 1),
            "col_upper": np.append(upper, inf),
        }
        for name, theirs in zip(sent, (cost, indptr, indices, data, lhs, rhs, lower, col_upper)):
            assert np.asarray(theirs).tobytes() == sent[name].tobytes(), name

    def test_feasibility_check_on_a_hand_made_solution(self, mesh4_paths):
        # linprog's _check_result, ported: bounds within tol, inequality
        # slack >= -tol, |equality residual| <= tol, NaN never passes.
        from scipy import sparse

        from repro.solvers.lp import constraint_structure

        structure = constraint_structure(mesh4_paths)
        demand = np.ones(mesh4_paths.num_sd_pairs)
        matrix = sparse.csc_matrix(
            (structure.stacked_data(demand), structure.stacked_indices, structure.stacked_indptr)
        )
        num_edges = structure.b_ub.size
        col_upper = np.append(np.ones(structure.num_paths), np.inf)
        ratios = mesh4_paths.sd_to_path.T @ (1.0 / mesh4_paths.sd_to_path.sum(axis=1).A1)
        utilisation = (matrix[:num_edges, :-1] @ ratios) / mesh4_paths.topology.capacities
        x = np.append(ratios, utilisation.max())
        tol = lpb.FEASIBILITY_TOL

        def check(x, row_value=None):
            row_value = matrix @ x if row_value is None else row_value
            return lpb._within_linprog_tolerance(
                x, row_value, col_upper, structure.stacked_row_upper, num_edges
            )

        assert check(x)
        over_cap = x.copy()
        over_cap[0] = 1.0 + 2 * tol
        assert not check(over_cap)
        negative = x.copy()
        negative[0] = -2 * tol
        assert not check(negative)
        overloaded = x.copy()
        overloaded[-1] *= 0.5  # t below the busiest edge's utilisation
        assert not check(overloaded)
        residual = matrix @ x
        residual[num_edges] += 2 * tol  # a pair's ratios no longer sum to one
        assert not check(x, residual)
        residual[num_edges] -= 1.5 * tol
        assert check(x, residual)
        with_nan = x.copy()
        with_nan[1] = np.nan
        assert not check(with_nan)

    def test_infeasible_lp_names_the_model_status(self, mesh4_paths):
        from repro.solvers.lp import LPSolveError

        demand = np.ones(mesh4_paths.num_sd_pairs)
        with pytest.raises(LPSolveError, match="MLU LP failed: HiGHS model status Infeasible"):
            ScipyLinprogBackend().solve(mesh4_paths, demand, np.zeros(mesh4_paths.num_paths))

    def test_optimal_but_infeasible_raises(self, monkeypatch, mesh4_paths, rng):
        from repro.solvers.lp import LPSolveError

        monkeypatch.setattr(lpb, "_within_linprog_tolerance", lambda *args: False)
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        with pytest.raises(LPSolveError, match="MLU LP failed: HiGHS model status Optimal"):
            ScipyLinprogBackend().solve(mesh4_paths, demand, np.ones(mesh4_paths.num_paths))


class TestPersistentModels:
    def test_model_reused_across_solves(self, mesh4_paths, rng, solve_on):
        backend = PersistentHighsBackend()
        demands = rng.random((5, mesh4_paths.num_sd_pairs)) + 0.1
        for demand in demands:
            solve_on(backend, mesh4_paths, demand)
        assert backend.num_models == 1

    def test_distinct_bounds_get_distinct_models(self, mesh4_paths, rng, solve_on):
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        solve_on(backend, mesh4_paths, demand)
        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        mask[::3] = False
        solve_on(backend, mesh4_paths, demand, path_mask=mask)
        assert backend.num_models == 2

    def test_lru_eviction(self, mesh4_paths, rng, monkeypatch, solve_on):
        monkeypatch.setattr(lpb, "MAX_PERSISTENT_MODELS", 2)
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        for failed in range(3):
            mask = np.ones(mesh4_paths.num_paths, dtype=bool)
            mask[failed::3] = False
            solve_on(backend, mesh4_paths, demand, path_mask=mask)
        assert backend.num_models == 2

    def test_clear_models(self, mesh4_paths, rng, solve_on):
        backend = PersistentHighsBackend()
        solve_on(backend, mesh4_paths, rng.random(mesh4_paths.num_sd_pairs))
        backend.clear_models()
        assert backend.num_models == 0

    def test_repeated_solves_stay_exact(self, mesh4_paths, rng, solve_on):
        # Re-solving an identical demand on a used model reproduces the
        # first answer exactly (tests/test_solvers_lp.py has the property).
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        _, first = solve_on(backend, mesh4_paths, demand)
        for _ in range(3):
            _, again = solve_on(backend, mesh4_paths, demand)
            assert again == first


class TestBatchBackend:
    def test_batch_returns_one_float_per_row(self, mesh4_paths, rng):
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        mlus = solve_mlu_lp_batch(mesh4_paths, demands)
        assert isinstance(mlus, np.ndarray)
        assert mlus.dtype == np.float64 and mlus.shape == (len(demands),)
        assert solve_mlu_lp_batch(mesh4_paths, demands[0]).shape == (1,)

    def test_batch_counts_solves(self, mesh4_paths, rng):
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        with count_lp_solves() as tally:
            solve_mlu_lp_batch(mesh4_paths, demands)
        assert tally.count == len(demands)

    def test_batch_backends_agree(self, fresh_solver, mesh4_paths, rng):
        # Vertex solves run on linprog, the batch on the persistent model.
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        scipy_mlus = [solve_mlu_lp(mesh4_paths, demand)[1] for demand in demands]
        highs_mlus = solve_mlu_lp_batch(mesh4_paths, demands)
        np.testing.assert_allclose(highs_mlus, scipy_mlus, atol=1e-9)


def _fresh_engine():
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache

    return EvaluationEngine(cache=OptimalMLUCache())


class Recording(ScipyLinprogBackend):
    """Counts the value-only solves it is handed."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def solve_mlu(self, path_set, demand_vector, upper):
        self.calls += 1
        return super().solve_mlu(path_set, demand_vector, upper)


_PRED_TE_SPEC = {
    "scenario": {
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "seed": 3, "num_intervals": 12},
        "history_len": 2,
    },
    "scheme": {"kind": "pred_te"},
    "max_intervals": 3,
}


class TestEngineAndStudyThreading:
    def test_engine_threads_backend_into_cache(self, mesh4_paths, rng, value_side):
        recording = value_side(Recording())
        engine = _fresh_engine()
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        engine.optimal_mlus(mesh4_paths, demands)
        assert recording.calls == len(demands)

    def test_cache_backend_solves_training_and_replay_normalisers(self, value_side):
        # The trainer draws its normalisers from the engine's cache, so the
        # value solver sees them all -- not just the replay's.
        from repro.study.study import Study

        replayed = 3
        spec = {
            "scenario": {
                "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
                "traffic": {"kind": "datacenter", "level": "pod", "seed": 3, "num_intervals": 50},
                "history_len": 2,
            },
            "scheme": {"kind": "figret", "epochs": 1, "history_len": 2, "seed": 0},
            "max_intervals": replayed,
        }
        recording = value_side(Recording())
        engine = _fresh_engine()
        with count_lp_solves() as tally:
            Study(spec).run(engine=engine)
        assert recording.calls == tally.count == engine.cache.misses
        assert tally.count > replayed  # the trainings' normalisers are in there

    def test_study_run_highs_matches_scipy(self, fresh_solver, value_side):
        from repro.study.study import Study

        highs_run = Study(_PRED_TE_SPEC).run(engine=_fresh_engine())
        value_side(ScipyLinprogBackend())
        scipy_run = Study(_PRED_TE_SPEC).run(engine=_fresh_engine())
        np.testing.assert_allclose(
            highs_run[0].series, scipy_run[0].series, atol=1e-9
        )

    def test_default_study_keeps_the_lp_schemes_published_numbers(
        self, fresh_solver, value_side
    ):
        # A grid with des_te and pred_te cells: under the default their raw
        # MLUs are the all-linprog run's bit for bit (their LPs stay on
        # linprog); only the normaliser's last bits may move.
        from repro.study.study import Study

        spec = {
            "scenario": {
                "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
                "traffic": {"kind": "datacenter", "level": "pod", "seed": 3, "num_intervals": 14},
                "history_len": 2,
            },
            "scheme": {"sweep": [{"kind": "des_te"}, {"kind": "pred_te"}]},
            "max_intervals": 4,
        }
        default = Study(spec).run(engine=_fresh_engine())
        value_side(ScipyLinprogBackend())
        reference = Study(spec).run(engine=_fresh_engine())
        for ours, theirs in zip(default, reference, strict=True):
            assert np.array_equal(ours.result.raw_mlus, theirs.result.raw_mlus)
            np.testing.assert_allclose(ours.series, theirs.series, rtol=1e-12, atol=0)
