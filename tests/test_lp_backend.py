"""Unit tests for the one LP solver rule and the solvers behind it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.solvers import lp_backend as lpb
from repro.solvers.lp import count_lp_solves, solve_mlu_lp, solve_mlu_lp_batch
from repro.solvers.lp_backend import (
    AutoLPBackend,
    PersistentHighsBackend,
    ScipyLinprogBackend,
    resolve_lp_backend,
)


def _highs_importable() -> bool:
    try:
        lpb._load_highspy()
    except ImportError:
        return False
    return True


needs_highs = pytest.mark.skipif(
    not _highs_importable(),
    reason="no importable HiGHS bindings (highspy or scipy-vendored HiGHS)",
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


def _broken_load():
    raise ImportError("no highspy anywhere")


class TestSelection:
    def test_default_is_auto(self, fresh_solver):
        assert resolve_lp_backend(None).name == "auto"
        assert isinstance(resolve_lp_backend(None), AutoLPBackend)
        assert isinstance(resolve_lp_backend()._vertices, ScipyLinprogBackend)
        if _highs_importable():
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

    @needs_highs
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
        solve_mlu_lp_batch(mesh4_paths, demand, mlu_only=True)
        solver = resolve_lp_backend()
        assert ran == [(solver._vertices, "solve"), (solver._values, "solve_mlu")]

    def test_auto_without_highs_is_scipy(self, monkeypatch):
        monkeypatch.setattr(lpb, "_load_highspy", _broken_load)
        solver = AutoLPBackend()
        assert solver.name == "auto"
        assert solver._values is solver._vertices
        assert isinstance(solver._values, ScipyLinprogBackend)

    def test_default_without_highs_is_all_scipy_and_silent(
        self, fresh_solver, monkeypatch, mesh4_paths, rng, solve_on
    ):
        import warnings as warnings_module

        monkeypatch.setattr(lpb, "_load_highspy", _broken_load)
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert resolve_lp_backend()._values is resolve_lp_backend()._vertices
            [(_, value)] = solve_mlu_lp_batch(mesh4_paths, demand, mlu_only=True)
        _, reference = solve_on(ScipyLinprogBackend(), mesh4_paths, demand, mlu_only=True)
        assert value == reference


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

    def test_without_highs_reproduces_the_parent_bit_for_bit(
        self, fresh_solver, monkeypatch, mesh4_paths, cases
    ):
        from repro.solvers.lp import OptimalMLUCache, omniscient_mlu
        from repro.te.config import TEConfiguration

        monkeypatch.setattr(lpb, "_load_highspy", _broken_load)
        for demand, caps, mask, upper in cases:
            ratios, mlu = _linprog_reference(mesh4_paths, demand, upper)
            config, solved = solve_mlu_lp(
                mesh4_paths, demand, sensitivity_caps=caps, path_mask=mask
            )
            assert solved == mlu
            expected = TEConfiguration(mesh4_paths, ratios, normalize=True)
            assert np.array_equal(config.split_ratios, expected.split_ratios)
            if caps is None:
                cached = OptimalMLUCache().optimal_mlu(mesh4_paths, demand, path_mask=mask)
                assert cached == max(mlu, 1e-12)
            if caps is None and mask is None:
                assert omniscient_mlu(mesh4_paths, demand) == max(mlu, 1e-12)

    @needs_highs
    def test_default_solve_returns_linprog_ratios_bit_for_bit(
        self, fresh_solver, mesh4_paths, cases, solve_on
    ):
        from repro.solvers.lp import OptimalMLUCache, omniscient_mlu

        for demand, caps, mask, upper in cases:
            ratios, mlu = _linprog_reference(mesh4_paths, demand, upper)
            config, solved = solve_mlu_lp(
                mesh4_paths, demand, sensitivity_caps=caps, path_mask=mask
            )
            assert solved == mlu
            named, _ = solve_on(
                ScipyLinprogBackend(), mesh4_paths, demand,
                sensitivity_caps=caps, path_mask=mask,
            )
            assert np.array_equal(config.split_ratios, named.split_ratios)
            # Only the normaliser moves, and only in its last bits -- and
            # omniscient_mlu serves the very value the cache does.
            if caps is None:
                cached = OptimalMLUCache().optimal_mlu(mesh4_paths, demand, path_mask=mask)
                assert cached == pytest.approx(max(mlu, 1e-12), rel=1e-12)
            if caps is None and mask is None:
                assert omniscient_mlu(mesh4_paths, demand) == cached


@needs_highs
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
        caps = np.full(mesh4_paths.num_paths, 0.5)
        solve_on(backend, mesh4_paths, demand, sensitivity_caps=caps)
        assert backend.num_models == 2

    def test_lru_eviction(self, mesh4_paths, rng, monkeypatch, solve_on):
        monkeypatch.setattr(lpb, "MAX_PERSISTENT_MODELS", 2)
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        for cap in (0.5, 0.6, 0.7):
            caps = np.full(mesh4_paths.num_paths, cap)
            solve_on(backend, mesh4_paths, demand, sensitivity_caps=caps)
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
    def test_mlu_only_skips_configurations(self, mesh4_paths, rng):
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        full = solve_mlu_lp_batch(mesh4_paths, demands)
        only = solve_mlu_lp_batch(mesh4_paths, demands, mlu_only=True)
        assert all(config is None for config, _ in only)
        np.testing.assert_allclose(
            [mlu for _, mlu in only], [mlu for _, mlu in full], atol=1e-12
        )

    def test_mlu_only_still_counts_solves(self, mesh4_paths, rng):
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        with count_lp_solves() as tally:
            solve_mlu_lp_batch(mesh4_paths, demands, mlu_only=True)
        assert tally.count == len(demands)

    @needs_highs
    def test_batch_backends_agree(self, fresh_solver, mesh4_paths, rng):
        # Full solves run on linprog, value-only ones on the persistent model.
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        scipy_mlus = [m for _, m in solve_mlu_lp_batch(mesh4_paths, demands)]
        highs_mlus = [
            m for _, m in solve_mlu_lp_batch(mesh4_paths, demands, mlu_only=True)
        ]
        np.testing.assert_allclose(highs_mlus, scipy_mlus, atol=1e-9)


def _fresh_engine():
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache

    return EvaluationEngine(cache=OptimalMLUCache())


class Recording(ScipyLinprogBackend):
    """Counts the value-only solves it is handed."""

    def __init__(self):
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

    @needs_highs
    def test_study_run_highs_matches_scipy(self, fresh_solver, value_side):
        from repro.study.study import Study

        highs_run = Study(_PRED_TE_SPEC).run(engine=_fresh_engine())
        value_side(ScipyLinprogBackend())
        scipy_run = Study(_PRED_TE_SPEC).run(engine=_fresh_engine())
        np.testing.assert_allclose(
            highs_run[0].series, scipy_run[0].series, atol=1e-9
        )

    @needs_highs
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
