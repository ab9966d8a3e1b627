"""Unit tests for the MLU LP solver and the prediction-based schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.lp import (
    LPSolveError,
    OmniscientTE,
    PredictionBasedTE,
    omniscient_mlu,
    predict_demand,
    solve_mlu_lp,
)
from repro.te.mlu import max_link_utilization
from repro.topology import generators
from repro.paths.ksp import build_ksp_path_set


def _figure3_demand(a_b: float = 1.0, a_c: float = 1.0, b_c: float = 1.0) -> np.ndarray:
    demand = np.zeros((3, 3))
    demand[0, 1], demand[0, 2], demand[1, 2] = a_b, a_c, b_c
    return demand


class TestSolveMluLP:
    def test_figure3_normal_case_optimum(self, triangle_paths):
        dv = triangle_paths.demand_vector(_figure3_demand())
        config, mlu = solve_mlu_lp(triangle_paths, dv)
        assert mlu == pytest.approx(0.5, abs=1e-6)
        # The LP's reported objective matches the evaluated configuration.
        assert max_link_utilization(triangle_paths, config, dv) == pytest.approx(mlu, abs=1e-6)

    def test_lp_never_worse_than_heuristics(self, mesh4_paths, rng):
        from repro.te.config import TEConfiguration

        demand = rng.random(mesh4_paths.num_sd_pairs) * 3.0
        _, optimal = solve_mlu_lp(mesh4_paths, demand)
        for heuristic in (TEConfiguration.uniform(mesh4_paths), TEConfiguration.shortest_path(mesh4_paths)):
            assert optimal <= max_link_utilization(mesh4_paths, heuristic, demand) + 1e-9

    def test_split_ratios_sum_to_one(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs)
        config, _ = solve_mlu_lp(mesh4_paths, demand)
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_zero_demand_gives_zero_mlu(self, mesh4_paths):
        _, mlu = solve_mlu_lp(mesh4_paths, np.zeros(mesh4_paths.num_sd_pairs))
        assert mlu == pytest.approx(0.0, abs=1e-9)

    def test_mlu_scales_linearly_with_demand(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs)
        _, mlu = solve_mlu_lp(mesh4_paths, demand)
        _, double = solve_mlu_lp(mesh4_paths, demand * 2)
        assert double == pytest.approx(2 * mlu, rel=1e-6)

    def test_sensitivity_caps_respected(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs)
        caps = np.full(mesh4_paths.num_paths, 0.5)
        config, _ = solve_mlu_lp(mesh4_paths, demand, sensitivity_caps=caps)
        assert config.split_ratios.max() <= 0.5 + 1e-6

    def test_sensitivity_caps_increase_mlu(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs)
        _, unconstrained = solve_mlu_lp(mesh4_paths, demand)
        _, constrained = solve_mlu_lp(
            mesh4_paths, demand, sensitivity_caps=np.full(mesh4_paths.num_paths, 0.4)
        )
        assert constrained >= unconstrained - 1e-9

    def test_infeasible_caps_are_relaxed(self, mesh4_paths, rng):
        # Caps summing to < 1 per pair would be infeasible; the solver must
        # relax them (Appendix C.1's feasibility caveat) instead of failing.
        demand = rng.random(mesh4_paths.num_sd_pairs)
        caps = np.full(mesh4_paths.num_paths, 0.2)
        config, _ = solve_mlu_lp(mesh4_paths, demand, sensitivity_caps=caps)
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_path_mask_excludes_failed_paths(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.5
        mask = mesh4_paths.restrict_to_working_paths({(0, 1)})
        config, _ = solve_mlu_lp(mesh4_paths, demand, path_mask=mask)
        for p_idx, ratio in enumerate(config.split_ratios):
            if not mask[p_idx]:
                assert ratio <= 1e-9

    def test_wrong_cap_shape_rejected(self, mesh4_paths):
        with pytest.raises(ValueError):
            solve_mlu_lp(mesh4_paths, np.ones(mesh4_paths.num_sd_pairs), sensitivity_caps=np.ones(3))

    def test_wrong_mask_shape_rejected(self, mesh4_paths):
        with pytest.raises(ValueError):
            solve_mlu_lp(mesh4_paths, np.ones(mesh4_paths.num_sd_pairs), path_mask=np.ones(3, dtype=bool))


class TestOmniscientMlu:
    def test_positive_floor_for_zero_demand(self, triangle_paths):
        assert omniscient_mlu(triangle_paths, np.zeros(triangle_paths.num_sd_pairs)) > 0

    def test_matches_lp(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs)
        _, mlu = solve_mlu_lp(mesh4_paths, demand)
        assert omniscient_mlu(mesh4_paths, demand) == pytest.approx(mlu)


class TestPredictDemand:
    def test_last(self):
        history = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(predict_demand(history, "last"), [3, 4])

    def test_mean(self):
        history = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(predict_demand(history, "mean"), [2, 3])

    def test_peak(self):
        history = np.array([[1.0, 5.0], [3.0, 4.0]])
        np.testing.assert_allclose(predict_demand(history, "peak"), [3, 5])

    def test_ewma_weights_recent_more(self):
        history = np.array([[0.0, 0.0], [10.0, 10.0]])
        ewma = predict_demand(history, "ewma")
        assert (ewma > 5.0).all()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            predict_demand(np.ones((2, 2)), "magic")

    def test_invalid_history(self):
        with pytest.raises(ValueError):
            predict_demand(np.ones(3), "last")


class TestSchemes:
    def test_omniscient_scheme_achieves_optimal(self, mesh4_paths, rng):
        scheme = OmniscientTE(mesh4_paths)
        demand = rng.random(mesh4_paths.num_sd_pairs)
        config = scheme.configure(demand[None, :])
        achieved = max_link_utilization(mesh4_paths, config, demand)
        assert achieved == pytest.approx(omniscient_mlu(mesh4_paths, demand), rel=1e-6)

    def test_prediction_scheme_optimal_under_stable_traffic(self, mesh4_paths, rng):
        scheme = PredictionBasedTE(mesh4_paths)
        demand = rng.random(mesh4_paths.num_sd_pairs) + 1.0
        history = np.tile(demand, (4, 1))
        config = scheme.configure(history)
        achieved = max_link_utilization(mesh4_paths, config, demand)
        assert achieved == pytest.approx(omniscient_mlu(mesh4_paths, demand), rel=1e-5)

    def test_prediction_scheme_hurt_by_burst(self, mesh4_paths, rng):
        scheme = PredictionBasedTE(mesh4_paths)
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.5
        history = np.tile(demand, (4, 1))
        config = scheme.configure(history)
        burst = demand.copy()
        burst[0] *= 10.0
        achieved = max_link_utilization(mesh4_paths, config, burst)
        assert achieved > omniscient_mlu(mesh4_paths, burst) * 1.05


class TestProcessPoolFallback:
    """A broken process pool degrades to sequential solves with ONE warning."""

    @pytest.fixture()
    def broken_pool(self, monkeypatch):
        import pickle

        from repro.solvers import lp as lp_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                raise pickle.PicklingError("cannot pickle the path set")

        monkeypatch.setattr(lp_module, "ProcessPoolExecutor", ExplodingPool)
        # Isolate the long-lived pool cache: a real pool created by an
        # earlier test must not serve this batch, and the exploding pool
        # must not leak to later tests.
        monkeypatch.setattr(lp_module, "_POOL_CACHE", {})
        monkeypatch.setattr(lp_module, "_POOL_FALLBACK_WARNED", False)
        return lp_module

    def test_fallback_warns_once_and_matches_sequential(
        self, broken_pool, mesh4_paths, rng
    ):
        from repro.solvers.lp import solve_mlu_lp_batch

        # Pinned to scipy: the test exercises pool-fallback machinery, not
        # a backend, so it names the reference one.
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        sequential = solve_mlu_lp_batch(mesh4_paths, demands, backend="scipy")
        with pytest.warns(RuntimeWarning, match="process-pool LP batch failed"):
            pooled = solve_mlu_lp_batch(
                mesh4_paths, demands, workers=2, backend="scipy"
            )
        for (expected_config, expected_mlu), (config, mlu) in zip(sequential, pooled):
            assert mlu == pytest.approx(expected_mlu, abs=1e-9)
            np.testing.assert_allclose(
                config.split_ratios, expected_config.split_ratios, atol=1e-9
            )
        # The warning fires once per process, not once per batch.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = solve_mlu_lp_batch(
                mesh4_paths, demands, workers=2, backend="scipy"
            )
        assert [mlu for _, mlu in again] == [mlu for _, mlu in pooled]

    def test_counter_increments_on_fallback_solves(self, broken_pool, mesh4_paths, rng):
        from repro.solvers.lp import lp_solve_calls, solve_mlu_lp_batch

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        before = lp_solve_calls()
        with pytest.warns(RuntimeWarning):
            solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        assert lp_solve_calls() == before + len(demands)


    def test_default_backend_fans_out_by_name(self, monkeypatch, mesh4_paths, rng):
        # The default is a registered name ("auto"), so a width still means
        # a pool: the chunks carry that name for the workers to resolve.
        # (test_counter_increments_on_fallback_solves is the broken-pool
        # half: it runs the default backend, too.)
        from repro.solvers import lp as lp_module
        from repro.solvers import lp_backend as lpb

        monkeypatch.delenv(lpb.LP_BACKEND_ENV_VAR, raising=False)
        shipped = []

        class InlinePool:
            def __init__(self, *args, **kwargs):
                pass

            def map(self, fn, jobs):
                assert fn is lp_module._solve_batch_chunk
                shipped.extend(jobs)
                return [fn(job) for job in jobs]

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(lp_module, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(lp_module, "_POOL_CACHE", {})
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        sequential = lp_module.solve_mlu_lp_batch(mesh4_paths, demands, mlu_only=True)
        pooled = lp_module.solve_mlu_lp_batch(mesh4_paths, demands, workers=2, mlu_only=True)
        assert [len(job[1]) for job in shipped] == [2, 2]
        assert {job[4] for job in shipped} == {lpb.get_lp_backend(None).name}
        assert pooled == sequential
        # Full solves: a chunk is the sequential batch, run in the worker.
        sequential = lp_module.solve_mlu_lp_batch(mesh4_paths, demands)
        pooled = lp_module.solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        assert [mlu for _, mlu in pooled] == [mlu for _, mlu in sequential]
        for (config, _), (expected, _) in zip(pooled, sequential):
            assert config.split_ratios.tobytes() == expected.split_ratios.tobytes()


class TestScopedSolveCounter:
    """count_lp_solves scopes the process-global counter per consumer."""

    def test_tally_counts_only_inside_scope(self, mesh4_paths, rng):
        from repro.solvers.lp import count_lp_solves, solve_mlu_lp

        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        solve_mlu_lp(mesh4_paths, demand)  # outside: must not be counted
        with count_lp_solves() as tally:
            assert tally.count == 0
            solve_mlu_lp(mesh4_paths, demand)
            solve_mlu_lp(mesh4_paths, demand)
            assert tally.count == 2
        # The tally keeps counting after the scope exits...
        solve_mlu_lp(mesh4_paths, demand)
        assert tally.count == 3
        # ...and reset() rebaselines it.
        tally.reset()
        assert tally.count == 0

    def test_nested_scopes_are_independent(self, mesh4_paths, rng):
        from repro.solvers.lp import count_lp_solves, solve_mlu_lp

        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        with count_lp_solves() as outer:
            solve_mlu_lp(mesh4_paths, demand)
            with count_lp_solves() as inner:
                solve_mlu_lp(mesh4_paths, demand)
                assert inner.count == 1
            assert outer.count == 2

    def test_matches_global_counter_delta(self, mesh4_paths, rng):
        from repro.solvers.lp import count_lp_solves, lp_solve_calls, solve_mlu_lp_batch

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        before = lp_solve_calls()
        with count_lp_solves() as tally:
            solve_mlu_lp_batch(mesh4_paths, demands)
        assert tally.count == lp_solve_calls() - before == len(demands)


class TestAutoWorkers:
    """'auto' is a valid workers value at every layer, not just the engine."""

    def test_batch_solver_accepts_auto(self, mesh4_paths, rng):
        from repro.solvers.lp import solve_mlu_lp_batch

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        auto = solve_mlu_lp_batch(mesh4_paths, demands, workers="auto")
        sequential = solve_mlu_lp_batch(mesh4_paths, demands)
        for (_, expected), (_, mlu) in zip(sequential, auto):
            assert mlu == pytest.approx(expected, abs=1e-9)

    def test_cache_and_trainer_accept_auto(self, mesh4_paths, rng):
        from repro.solvers.lp import OptimalMLUCache

        demands = rng.random((2, mesh4_paths.num_sd_pairs)) + 0.1
        values = OptimalMLUCache(workers="auto").optimal_mlus(mesh4_paths, demands)
        assert np.isfinite(values).all()

    def test_other_strings_rejected(self, mesh4_paths, rng):
        from repro.solvers.lp import resolve_lp_workers

        with pytest.raises(ValueError, match="auto"):
            resolve_lp_workers("many")

    def test_default_lp_workers_positive(self):
        from repro.solvers.lp import default_lp_workers

        assert default_lp_workers() >= 1


class TestWorkersEnvDefault:
    """REPRO_LP_WORKERS is a first-class default of resolve_lp_workers."""

    def test_env_sets_default_width(self, monkeypatch):
        from repro.solvers.lp import resolve_lp_workers

        monkeypatch.setenv("REPRO_LP_WORKERS", "3")
        assert resolve_lp_workers(None) == 3

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        from repro.solvers.lp import resolve_lp_workers

        monkeypatch.setenv("REPRO_LP_WORKERS", "3")
        assert resolve_lp_workers(2) == 2

    def test_env_auto(self, monkeypatch):
        from repro.solvers.lp import default_lp_workers, resolve_lp_workers

        monkeypatch.setenv("REPRO_LP_WORKERS", "auto")
        assert resolve_lp_workers(None) == default_lp_workers()

    def test_blank_env_means_unset(self, monkeypatch):
        from repro.solvers.lp import resolve_lp_workers

        monkeypatch.setenv("REPRO_LP_WORKERS", "   ")
        assert resolve_lp_workers(None) is None

    @pytest.mark.parametrize("bad", ["many", "0", "-2", "2.5"])
    def test_contradictory_env_rejected_with_accepted_forms(self, monkeypatch, bad):
        from repro.solvers.lp import resolve_lp_workers

        monkeypatch.setenv("REPRO_LP_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_LP_WORKERS must be"):
            resolve_lp_workers(None)

    def test_use_env_false_ignores_env(self, monkeypatch):
        from repro.solvers.lp import resolve_lp_workers

        monkeypatch.setenv("REPRO_LP_WORKERS", "3")
        assert resolve_lp_workers(None, use_env=False) is None
        # ...even a malformed one: the knob opting out must not validate it.
        monkeypatch.setenv("REPRO_LP_WORKERS", "many")
        assert resolve_lp_workers(None, use_env=False) is None


def _importable(name: str) -> bool:
    from repro.solvers.lp_backend import importable_lp_backends

    return name in importable_lp_backends()


class TestBackendEquivalence:
    """The scipy and persistent-highs backends solve the same LP."""

    pytestmark = pytest.mark.skipif(
        not _importable("highs"),
        reason="no importable highs backend (highspy or scipy-vendored HiGHS)",
    )

    @pytest.fixture()
    def backends(self):
        from repro.solvers.lp_backend import PersistentHighsBackend, ScipyLinprogBackend

        return ScipyLinprogBackend(), PersistentHighsBackend()

    def test_hypothesis_same_mlu_across_demands_caps_masks(
        self, mesh4_paths, backends
    ):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        scipy_backend, highs_backend = backends
        num_pairs = mesh4_paths.num_sd_pairs
        num_paths = mesh4_paths.num_paths

        @settings(max_examples=30, deadline=None)
        @given(
            demand=st.lists(
                st.floats(0.0, 10.0, allow_nan=False),
                min_size=num_pairs,
                max_size=num_pairs,
            ),
            caps=st.one_of(
                st.none(),
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False),
                    min_size=num_paths,
                    max_size=num_paths,
                ),
            ),
            mask=st.one_of(
                st.none(),
                st.lists(st.booleans(), min_size=num_paths, max_size=num_paths),
            ),
        )
        def check(demand, caps, mask):
            from repro.solvers.lp import solve_mlu_lp

            kwargs = dict(
                sensitivity_caps=None if caps is None else np.array(caps),
                path_mask=None if mask is None else np.array(mask, dtype=bool),
            )
            _, scipy_mlu = solve_mlu_lp(
                mesh4_paths, np.array(demand), backend=scipy_backend, **kwargs
            )
            _, highs_mlu = solve_mlu_lp(
                mesh4_paths, np.array(demand), backend=highs_backend, **kwargs
            )
            assert highs_mlu == pytest.approx(scipy_mlu, abs=1e-9)

        check()

    def test_highs_configuration_achieves_the_optimal_mlu(
        self, mesh4_paths, rng, backends
    ):
        # Degenerate LPs may have several optimal vertices, so the *ratios*
        # can differ between backends; what must hold is that the highs
        # configuration actually achieves the reported (shared) optimum.
        from repro.solvers.lp import solve_mlu_lp

        _, highs_backend = backends
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.2
        config, mlu = solve_mlu_lp(mesh4_paths, demand, backend=highs_backend)
        achieved = max_link_utilization(mesh4_paths, config, demand)
        assert achieved == pytest.approx(mlu, abs=1e-6)

    def test_caps_respected_by_highs_backend(self, mesh4_paths, rng, backends):
        from repro.solvers.lp import solve_mlu_lp

        _, highs_backend = backends
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.2
        caps = np.full(mesh4_paths.num_paths, 0.5)
        config, _ = solve_mlu_lp(
            mesh4_paths, demand, sensitivity_caps=caps, backend=highs_backend
        )
        assert config.split_ratios.max() <= 0.5 + 1e-6


    def test_tolerance_sized_flow_does_not_become_a_negative_ratio(
        self, tor_scenario_small, backends
    ):
        # Found by the history property below.  The solver's feasibility
        # tolerance is absolute (1e-7, in flow units), so a pair whose whole
        # demand is that small can be left with a slightly negative flow on
        # one path; divided by the demand it used to come back as a ratio
        # of -0.125, which TEConfiguration rightly refuses.
        from repro.solvers.lp import solve_mlu_lp

        _, paths, _ = tor_scenario_small
        _, highs_backend = backends
        caps = np.zeros(paths.num_paths)
        caps[111:114] = [0.5, 0.25, 0.625]  # the three paths of pair 37
        demand = np.zeros(paths.num_sd_pairs)
        demand[37], demand[47] = 1e-7, 1.0
        config, mlu = solve_mlu_lp(
            paths, demand, sensitivity_caps=caps, backend=highs_backend
        )
        assert config.split_ratios.min() >= 0.0
        np.testing.assert_allclose(paths.sd_to_path @ config.split_ratios, 1.0, atol=1e-9)
        assert mlu == pytest.approx(1.0 / 30.0, abs=1e-9)


class TestHistoryIndependence:
    """A highs result is a function of (model, demand), not of what ran before."""

    pytestmark = pytest.mark.skipif(
        not _importable("highs"),
        reason="no importable highs backend (highspy or scipy-vendored HiGHS)",
    )

    def test_hypothesis_same_bits_after_any_solve_sequence(self, tor_scenario_small):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.solvers.lp import solve_mlu_lp, solve_mlu_lp_batch
        from repro.solvers.lp_backend import PersistentHighsBackend

        _, paths, traffic = tor_scenario_small
        num_pairs, num_paths = paths.num_sd_pairs, paths.num_paths
        first_paths = np.searchsorted(paths.path_sd_index, np.arange(num_pairs))
        trace = traffic.flat_demands()

        no_first_path = np.ones(num_paths, dtype=bool)
        no_first_path[first_paths[::2]] = False
        pair_masked = np.ones(num_paths, dtype=bool)
        pair_masked[paths.path_sd_index == 3] = False  # relaxed: re-enabled
        exactly_one = np.array([0.25, 0.5, 0.25])[np.arange(num_paths) - first_paths[paths.path_sd_index]]
        bounds = st.one_of(
            st.sampled_from(
                [
                    (None, None),
                    (None, no_first_path),
                    (None, pair_masked),
                    (exactly_one, None),
                    (np.full(num_paths, 0.5), no_first_path),
                ]
            ),
            st.tuples(
                st.lists(st.floats(0.0, 1.0), min_size=num_paths, max_size=num_paths).map(np.array),
                st.one_of(
                    st.none(),
                    st.lists(st.booleans(), min_size=num_paths, max_size=num_paths).map(np.array),
                ),
            ),
        )
        demand = st.one_of(
            st.sampled_from([np.zeros(num_pairs), *trace[:8]]),
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=num_pairs, max_size=num_pairs
            ).map(np.array),
        )
        solve = st.tuples(bounds, demand, st.booleans())

        def run(backend, job):
            (caps, mask), demand, value_only = job
            kwargs = dict(sensitivity_caps=caps, path_mask=mask, backend=backend)
            if value_only:
                [(_, mlu)] = solve_mlu_lp_batch(paths, demand, mlu_only=True, **kwargs)
                return None, mlu
            config, mlu = solve_mlu_lp(paths, demand, **kwargs)
            return config.split_ratios, mlu

        used = PersistentHighsBackend()  # one history across all examples, too

        @settings(max_examples=40, deadline=None)
        @given(history=st.lists(solve, max_size=4), bounds=bounds, demand=demand)
        def check(history, bounds, demand):
            for job in history:
                run(used, job)
            for value_only in (False, True):
                job = (bounds, demand, value_only)
                ratios, mlu = run(used, job)
                fresh_ratios, fresh_mlu = run(PersistentHighsBackend(), job)
                assert mlu == fresh_mlu
                assert value_only or np.array_equal(ratios, fresh_ratios)

        check()


class TestInfeasibleLP:
    """Both backends surface solver failures as LPSolveError with a message."""

    @pytest.fixture()
    def force_zero_upper(self, monkeypatch):
        # All ratio upper bounds zero + the per-pair sum-to-one equality is
        # infeasible.  _ratio_upper_bounds itself relaxes over-tight caps
        # (Appendix C.1), so infeasibility is forced behind its back -- also
        # covering the "solver fails anyway" path the relaxation cannot reach.
        from repro.solvers import lp as lp_module

        monkeypatch.setattr(
            lp_module,
            "_ratio_upper_bounds",
            lambda path_set, caps, mask: np.zeros(path_set.num_paths),
        )

    def _solve_infeasible(self, path_set, backend):
        from repro.solvers.lp import solve_mlu_lp

        # A non-None mask routes past the trivial-bounds fast path into the
        # (patched) _ratio_upper_bounds.
        solve_mlu_lp(
            path_set,
            np.ones(path_set.num_sd_pairs),
            path_mask=np.ones(path_set.num_paths, dtype=bool),
            backend=backend,
        )

    def test_scipy_backend_raises_with_solver_message(
        self, mesh4_paths, force_zero_upper
    ):
        with pytest.raises(LPSolveError, match="MLU LP failed: .+"):
            self._solve_infeasible(mesh4_paths, "scipy")

    @pytest.mark.skipif(
        not _importable("highs"), reason="no importable highs backend"
    )
    def test_highs_backend_raises_with_solver_message(
        self, mesh4_paths, force_zero_upper
    ):
        # No pair has a usable path, so there is no routing to start from:
        # the model solves from scratch and the solver's own status is named.
        with pytest.raises(LPSolveError, match="MLU LP failed: Infeasible"):
            self._solve_infeasible(mesh4_paths, "highs")
