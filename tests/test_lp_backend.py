"""Unit tests for the pluggable LP solver-backend layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers import lp_backend as lpb
from repro.solvers.lp import count_lp_solves, solve_mlu_lp, solve_mlu_lp_batch
from repro.solvers.lp_backend import (
    AutoLPBackend,
    PersistentHighsBackend,
    ScipyLinprogBackend,
    available_lp_backends,
    get_lp_backend,
    importable_lp_backends,
    resolve_lp_backend,
)

needs_highs = pytest.mark.skipif(
    "highs" not in importable_lp_backends(),
    reason="no importable highs backend (highspy or scipy-vendored HiGHS)",
)


@pytest.fixture()
def clean_registry(monkeypatch):
    """Isolate the backend instance cache and fallback-warning state."""
    monkeypatch.setattr(lpb, "_INSTANCES", {})
    monkeypatch.setattr(lpb, "_FALLBACK_WARNED", set())
    monkeypatch.delenv(lpb.LP_BACKEND_ENV_VAR, raising=False)
    return lpb


def _broken_load():
    raise ImportError("no highspy anywhere")


class TestSelection:
    @needs_highs
    def test_default_is_auto(self, clean_registry):
        assert get_lp_backend(None).name == "auto"
        assert isinstance(get_lp_backend(None), AutoLPBackend)
        assert get_lp_backend(None) is get_lp_backend("auto")

    def test_instances_are_cached(self, clean_registry):
        assert get_lp_backend("scipy") is get_lp_backend("scipy")

    def test_unknown_name_lists_choices(self, clean_registry):
        with pytest.raises(ValueError, match="scipy"):
            get_lp_backend("cplex")

    def test_env_variable_selects_backend(self, clean_registry, monkeypatch):
        monkeypatch.setenv(lpb.LP_BACKEND_ENV_VAR, "scipy")
        assert get_lp_backend(None).name == "scipy"

    def test_registered_names(self):
        assert available_lp_backends() == ("scipy", "highs", "auto")
        assert "scipy" in importable_lp_backends()

    def test_resolve_passthrough_and_lookup(self, clean_registry):
        instance = ScipyLinprogBackend()
        assert resolve_lp_backend(instance) is instance
        assert resolve_lp_backend("scipy").name == "scipy"
        assert resolve_lp_backend(None) is get_lp_backend(None)
        assert resolve_lp_backend("auto") is get_lp_backend(None)

    @needs_highs
    def test_auto_prefers_highs(self, clean_registry, mesh4_paths, rng, monkeypatch):
        # ...for what has one answer: value-only solves run on the registry's
        # highs instance, vertex-returning solves on its scipy instance.  The
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
        solve_mlu_lp(mesh4_paths, demand, backend="auto")
        solve_mlu_lp_batch(mesh4_paths, demand, backend="auto", mlu_only=True)
        assert ran == [
            (get_lp_backend("scipy"), "solve"),
            (get_lp_backend("highs"), "solve_mlu"),
        ]

    def test_unimportable_backend_warns_once_and_falls_back(
        self, clean_registry, monkeypatch
    ):
        monkeypatch.setattr(lpb, "_load_highspy", _broken_load)
        with pytest.warns(RuntimeWarning, match="falling back to scipy"):
            backend = get_lp_backend("highs")
        assert backend.name == "scipy"
        # The fallback is cached under the failing name: no second warning,
        # no re-attempted import on the hot path.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert get_lp_backend("highs") is backend

    def test_auto_without_highs_is_scipy(self, clean_registry, monkeypatch):
        monkeypatch.setattr(lpb, "_load_highspy", _broken_load)
        assert get_lp_backend("auto").name == "scipy"
        assert importable_lp_backends() == ("scipy",)

    def test_default_without_highs_is_all_scipy_and_silent(
        self, clean_registry, monkeypatch, mesh4_paths, rng
    ):
        import warnings as warnings_module

        monkeypatch.setattr(lpb, "_load_highspy", _broken_load)
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert get_lp_backend(None) is get_lp_backend("scipy")
            [(_, value)] = solve_mlu_lp_batch(mesh4_paths, demand, mlu_only=True)
        [(_, reference)] = solve_mlu_lp_batch(
            mesh4_paths, demand, backend=ScipyLinprogBackend(), mlu_only=True
        )
        assert value == reference


def _linprog_reference(path_set, demand, upper):
    """The parent's solve, spelled out: what ``scipy`` must keep returning."""
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

    def test_env_scipy_reproduces_the_parent_bit_for_bit(
        self, clean_registry, monkeypatch, mesh4_paths, cases
    ):
        from repro.solvers.lp import OptimalMLUCache, omniscient_mlu
        from repro.te.config import TEConfiguration

        monkeypatch.setenv(lpb.LP_BACKEND_ENV_VAR, "scipy")
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
        self, clean_registry, mesh4_paths, cases
    ):
        from repro.solvers.lp import OptimalMLUCache, omniscient_mlu

        for demand, caps, mask, upper in cases:
            ratios, mlu = _linprog_reference(mesh4_paths, demand, upper)
            config, solved = solve_mlu_lp(
                mesh4_paths, demand, sensitivity_caps=caps, path_mask=mask
            )
            assert solved == mlu
            named, _ = solve_mlu_lp(
                mesh4_paths, demand, sensitivity_caps=caps, path_mask=mask, backend="scipy"
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
    def test_model_reused_across_solves(self, mesh4_paths, rng):
        backend = PersistentHighsBackend()
        demands = rng.random((5, mesh4_paths.num_sd_pairs)) + 0.1
        for demand in demands:
            solve_mlu_lp(mesh4_paths, demand, backend=backend)
        assert backend.num_models == 1

    def test_distinct_bounds_get_distinct_models(self, mesh4_paths, rng):
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        solve_mlu_lp(mesh4_paths, demand, backend=backend)
        caps = np.full(mesh4_paths.num_paths, 0.5)
        solve_mlu_lp(mesh4_paths, demand, sensitivity_caps=caps, backend=backend)
        assert backend.num_models == 2

    def test_lru_eviction(self, mesh4_paths, rng, monkeypatch):
        monkeypatch.setattr(lpb, "MAX_PERSISTENT_MODELS", 2)
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        for cap in (0.5, 0.6, 0.7):
            caps = np.full(mesh4_paths.num_paths, cap)
            solve_mlu_lp(mesh4_paths, demand, sensitivity_caps=caps, backend=backend)
        assert backend.num_models == 2

    def test_clear_models(self, mesh4_paths, rng):
        backend = PersistentHighsBackend()
        solve_mlu_lp(
            mesh4_paths, rng.random(mesh4_paths.num_sd_pairs), backend=backend
        )
        backend.clear_models()
        assert backend.num_models == 0

    def test_repeated_solves_stay_exact(self, mesh4_paths, rng):
        # Re-solving an identical demand on a used model reproduces the
        # first answer exactly (tests/test_solvers_lp.py has the property).
        backend = PersistentHighsBackend()
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        _, first = solve_mlu_lp(mesh4_paths, demand, backend=backend)
        for _ in range(3):
            _, again = solve_mlu_lp(mesh4_paths, demand, backend=backend)
            assert again == first


class TestBatchBackend:
    def test_batch_accepts_backend_name(self, mesh4_paths, rng):
        # The default backend follows REPRO_LP_BACKEND, so the comparison is
        # approximate: both backends find the same optimum to solver tolerance.
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        default = solve_mlu_lp_batch(mesh4_paths, demands)
        named = solve_mlu_lp_batch(mesh4_paths, demands, backend="scipy")
        for (_, expected), (_, mlu) in zip(default, named):
            assert mlu == pytest.approx(expected, abs=1e-9)

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

    def test_unregistered_instance_solves_sequentially(self, mesh4_paths, rng):
        # A custom instance cannot be shipped to pool workers by name; the
        # batch must fall back to in-process solves rather than mis-resolve.
        class Custom(ScipyLinprogBackend):
            name = "custom-local"

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        results = solve_mlu_lp_batch(mesh4_paths, demands, workers=2, backend=Custom())
        expected = solve_mlu_lp_batch(mesh4_paths, demands)
        for (_, want), (_, got) in zip(expected, results):
            assert got == pytest.approx(want, abs=1e-9)

    @needs_highs
    def test_batch_backends_agree(self, mesh4_paths, rng):
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        scipy_mlus = [m for _, m in solve_mlu_lp_batch(mesh4_paths, demands)]
        highs_mlus = [
            m for _, m in solve_mlu_lp_batch(mesh4_paths, demands, backend="highs")
        ]
        np.testing.assert_allclose(highs_mlus, scipy_mlus, atol=1e-9)


def _engine_on(lp_backend):
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache

    return EvaluationEngine(cache=OptimalMLUCache(backend=lp_backend))


class Recording(ScipyLinprogBackend):
    """Counts the value-only solves it is handed; named outside the registry."""

    name = "recording"

    def __init__(self):
        self.calls = 0

    def solve_mlu(self, path_set, demand_vector, upper):
        self.calls += 1
        return super().solve_mlu(path_set, demand_vector, upper)


class TestEngineAndStudyThreading:
    def test_engine_threads_backend_into_cache(self, mesh4_paths, rng):
        recording = Recording()
        engine = _engine_on(recording)
        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        engine.optimal_mlus(mesh4_paths, demands)
        assert recording.calls == len(demands)

    def test_cache_backend_solves_training_and_replay_normalisers(self):
        # The trainer draws its normalisers from the engine's cache, so the
        # cache's backend sees them all -- not just the replay's.
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
        recording = Recording()
        engine = _engine_on(recording)
        with count_lp_solves() as tally:
            Study(spec).run(engine=engine)
        assert recording.calls == tally.count == engine.cache.misses
        assert tally.count > replayed  # the trainings' normalisers are in there

    def test_engine_default_lp_backend_is_none(self):
        from repro.evaluation.engine import EvaluationEngine

        assert EvaluationEngine().cache.backend is None

    def test_cache_optimal_mlu_accepts_backend(self, mesh4_paths, rng):
        from repro.solvers.lp import OptimalMLUCache

        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        plain = OptimalMLUCache().optimal_mlu(mesh4_paths, demand)
        named = OptimalMLUCache(backend="scipy").optimal_mlu(mesh4_paths, demand)
        # Approximate because the no-backend call follows REPRO_LP_BACKEND.
        assert named == pytest.approx(plain, abs=1e-9)

    def test_study_run_accepts_lp_backend(self, monkeypatch):
        from repro.study.study import Study

        # Pin the no-argument default to "auto" regardless of the test
        # environment: pred_te's raw MLUs are then linprog's bit for bit and
        # only the normaliser's last bits may differ from all-scipy.
        monkeypatch.delenv(lpb.LP_BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(lpb, "_INSTANCES", {})

        spec = {
            "scenario": {
                "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
                "traffic": {
                    "kind": "datacenter",
                    "level": "pod",
                    "seed": 3,
                    "num_intervals": 12,
                },
                "history_len": 2,
            },
            "scheme": {"kind": "pred_te"},
            "max_intervals": 3,
        }
        baseline = Study(spec).run()
        explicit = Study(spec).run(engine=_engine_on("scipy"))
        np.testing.assert_allclose(
            explicit[0].series, baseline[0].series, atol=1e-12
        )

    @needs_highs
    def test_study_run_highs_matches_scipy(self):
        from repro.study.study import Study

        spec = {
            "scenario": {
                "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
                "traffic": {
                    "kind": "datacenter",
                    "level": "pod",
                    "seed": 3,
                    "num_intervals": 12,
                },
                "history_len": 2,
            },
            "scheme": {"kind": "pred_te"},
            "max_intervals": 3,
        }
        scipy_run = Study(spec).run(engine=_engine_on("scipy"))
        highs_run = Study(spec).run(engine=_engine_on("highs"))
        np.testing.assert_allclose(
            highs_run[0].series, scipy_run[0].series, atol=1e-9
        )


    @needs_highs
    def test_default_study_keeps_the_lp_schemes_published_numbers(self, monkeypatch):
        # A grid with des_te and pred_te cells: under the default their raw
        # MLUs are the all-scipy run's bit for bit (their LPs stay on
        # linprog); only the normaliser's last bits may move.
        from repro.evaluation.engine import EvaluationEngine
        from repro.solvers.lp import OptimalMLUCache
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
        monkeypatch.setattr(lpb, "_INSTANCES", {})

        def run():
            return Study(spec).run(engine=EvaluationEngine(cache=OptimalMLUCache()))

        monkeypatch.delenv(lpb.LP_BACKEND_ENV_VAR, raising=False)
        default = run()
        monkeypatch.setenv(lpb.LP_BACKEND_ENV_VAR, "scipy")
        reference = run()
        for ours, theirs in zip(default, reference, strict=True):
            assert np.array_equal(ours.result.raw_mlus, theirs.result.raw_mlus)
            np.testing.assert_allclose(ours.series, theirs.series, rtol=1e-12, atol=0)


class TestEnvPlumbing:
    def test_env_backend_reaches_solves(self, mesh4_paths, rng, monkeypatch):
        # A backend registered and named by REPRO_LP_BACKEND must be the one
        # solve_mlu_lp actually runs when no explicit backend is passed.
        calls = []

        class Recording(ScipyLinprogBackend):
            name = "recording-env"

            def solve(self, path_set, demand_vector, upper):
                calls.append(1)
                return super().solve(path_set, demand_vector, upper)

        monkeypatch.setitem(lpb._FACTORIES, "recording-env", Recording)
        monkeypatch.setattr(lpb, "_INSTANCES", {})
        monkeypatch.setenv(lpb.LP_BACKEND_ENV_VAR, "recording-env")
        solve_mlu_lp(mesh4_paths, rng.random(mesh4_paths.num_sd_pairs))
        assert calls == [1]

    def test_bad_env_backend_raises_at_use(self, mesh4_paths, monkeypatch):
        monkeypatch.setattr(lpb, "_INSTANCES", {})
        monkeypatch.setenv(lpb.LP_BACKEND_ENV_VAR, "gurobi")
        with pytest.raises(ValueError, match="unknown LP backend"):
            solve_mlu_lp(mesh4_paths, np.ones(mesh4_paths.num_sd_pairs))
