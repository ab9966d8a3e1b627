"""Unit tests for the MLU LP solver and the prediction-based schemes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.solvers.lp import (
    LPSolveError,
    OmniscientTE,
    OptimalMLUCache,
    PredictionBasedTE,
    count_lp_solves,
    omniscient_mlu,
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


class TestNonFiniteDemand:
    """A NaN, infinite or negative demand is a ValueError on every LP path --
    the vertex solve, the normaliser and the cache -- and nothing is solved
    or cached.  (A negative one would otherwise split the two solvers: the
    vertex LP solves it, the normaliser's supply bounds make it infeasible.)"""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    @pytest.mark.parametrize("entry", ["solve_mlu_lp", "omniscient_mlu", "optimal_mlus"])
    def test_rejected_before_any_solve(self, mesh4_paths, rng, entry, bad):
        good = rng.random(mesh4_paths.num_sd_pairs) + 0.1
        demand = good.copy()
        demand[2] = bad
        cache = OptimalMLUCache()
        calls = {
            "solve_mlu_lp": lambda: solve_mlu_lp(mesh4_paths, demand),
            "omniscient_mlu": lambda: omniscient_mlu(mesh4_paths, demand),
            "optimal_mlus": lambda: cache.optimal_mlus(mesh4_paths, np.stack([good, demand])),
        }
        message = "finite" if not np.isfinite(bad) else "non-negative"
        with count_lp_solves() as tally, pytest.raises(ValueError, match=message):
            calls[entry]()
        assert tally.count == 0
        assert len(cache) == 0


class TestOmniscientMlu:
    def test_positive_floor_for_zero_demand(self, triangle_paths):
        assert omniscient_mlu(triangle_paths, np.zeros(triangle_paths.num_sd_pairs)) > 0

    def test_matches_lp(self, mesh4_paths, rng):
        demand = rng.random(mesh4_paths.num_sd_pairs)
        _, mlu = solve_mlu_lp(mesh4_paths, demand)
        assert omniscient_mlu(mesh4_paths, demand) == pytest.approx(mlu)


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

    def test_prediction_scheme_solves_for_the_last_matrix(self, mesh4_paths, rng):
        history = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.5
        config = PredictionBasedTE(mesh4_paths).configure(history)
        expected, _ = solve_mlu_lp(mesh4_paths, history[-1])
        np.testing.assert_array_equal(config.split_ratios, expected.split_ratios)

    def test_pred_te_spec_rejects_a_strategy_key(self, mesh4_paths):
        from repro.study.spec import build_scheme

        with pytest.raises(TypeError, match="strategy"):
            build_scheme({"kind": "pred_te", "strategy": "mean"}, mesh4_paths)

    @pytest.mark.parametrize("history", [np.ones(3), np.ones((0, 3))], ids=["1-D", "no rows"])
    def test_prediction_scheme_rejects_a_malformed_history(self, mesh4_paths, history):
        with pytest.raises(ValueError, match="history must be"):
            PredictionBasedTE(mesh4_paths).configure(history)

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

        from repro import pool as pool_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                raise pickle.PicklingError("cannot pickle the path set")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", ExplodingPool)
        # Isolate the long-lived pool cache: a real pool created by an
        # earlier test must not serve this batch, and the exploding pool
        # must not leak to later tests.
        monkeypatch.setattr(pool_module, "_POOL_CACHE", {})
        monkeypatch.setattr(pool_module, "_FALLBACKS", 0)
        return pool_module

    def test_fallback_warns_once_and_matches_sequential(
        self, broken_pool, mesh4_paths, rng
    ):
        from repro.solvers.lp import solve_mlu_lp_batch

        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        sequential = solve_mlu_lp_batch(mesh4_paths, demands)
        with pytest.warns(RuntimeWarning, match="process-pool LP batch failed"):
            pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        assert pooled.tobytes() == sequential.tobytes()
        # The warning fires once per process, not once per batch.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        assert again.tobytes() == pooled.tobytes()

    def test_counter_increments_on_fallback_solves(self, broken_pool, mesh4_paths, rng):
        from repro.solvers.lp import solve_mlu_lp_batch

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        with count_lp_solves() as tally, pytest.warns(RuntimeWarning):
            solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        assert tally.count == len(demands)


    def test_default_solver_fans_out(self, monkeypatch, mesh4_paths, rng):
        # A width means a pool: the chunks name no solver, each worker runs
        # the same fixed rule.  (test_counter_increments_on_fallback_solves
        # is the broken-pool half.)
        from concurrent.futures import Future

        from repro import pool as pool_module
        from repro.solvers import lp as lp_module

        shipped = []

        class InlinePool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, fn, job):
                assert fn is lp_module._solve_batch_chunk
                shipped.append(job)
                future = Future()
                future.set_result(fn(job))
                return future

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(pool_module, "_POOL_CACHE", {})
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        sequential = lp_module.solve_mlu_lp_batch(mesh4_paths, demands)
        pooled = lp_module.solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        # A job is (path set, chunk, mask): the sequential batch, run in the worker.
        assert [len(job) for job in shipped] == [3, 3]
        assert [len(job[1]) for job in shipped] == [2, 2]
        assert pooled.tobytes() == sequential.tobytes()


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
        from repro.solvers import lp as lp_module

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        before = lp_module._LP_SOLVE_CALLS
        with count_lp_solves() as tally:
            lp_module.solve_mlu_lp_batch(mesh4_paths, demands)
        assert tally.count == lp_module._LP_SOLVE_CALLS - before == len(demands)


class TestAutoWorkers:
    """'auto' is a valid workers value at every layer, not just the engine."""

    def test_batch_solver_accepts_auto(self, mesh4_paths, rng):
        from repro.solvers.lp import solve_mlu_lp_batch

        demands = rng.random((3, mesh4_paths.num_sd_pairs)) + 0.1
        auto = solve_mlu_lp_batch(mesh4_paths, demands, workers="auto")
        sequential = solve_mlu_lp_batch(mesh4_paths, demands)
        assert auto.tobytes() == sequential.tobytes()

    def test_cache_and_trainer_accept_auto(self, mesh4_paths, rng):
        from repro.solvers.lp import OptimalMLUCache

        demands = rng.random((2, mesh4_paths.num_sd_pairs)) + 0.1
        values = OptimalMLUCache(workers="auto").optimal_mlus(mesh4_paths, demands)
        assert np.isfinite(values).all()

    def test_other_strings_rejected(self, mesh4_paths, rng):
        from repro.pool import resolve_workers

        with pytest.raises(ValueError, match="auto"):
            resolve_workers("many")

    def test_default_lp_workers_positive(self):
        from repro.pool import default_workers

        assert default_workers() >= 1


def test_lp_workers_variable_fails_loudly():
    """The LP pool width is ``OptimalMLUCache(workers=)`` and nothing else: a
    set ``REPRO_LP_WORKERS`` stops the import instead of being silently
    ignored, and an empty one counts as unset."""
    src = str(Path(repro.__file__).resolve().parents[1])

    def import_with(value):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
            REPRO_LP_WORKERS=value,
        )
        return subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = import_with("2")
    assert done.returncode != 0
    assert "RuntimeError" in done.stderr and "REPRO_LP_WORKERS" in done.stderr
    assert "OptimalMLUCache(workers=)" in done.stderr
    assert import_with("").returncode == 0


class TestBackendEquivalence:
    """``linprog`` and the persistent HiGHS model solve the same LP."""

    @pytest.fixture()
    def backends(self):
        from repro.solvers.lp_backend import PersistentHighsBackend, ScipyLinprogBackend

        return ScipyLinprogBackend(), PersistentHighsBackend()

    def test_hypothesis_same_mlu_across_demands_caps_masks(
        self, mesh4_paths, backends, solve_on
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
            # 0/1 caps, the bounds a mask leaves: the persistent model
            # refuses fractional ones (see the rejection test below).
            caps=st.one_of(
                st.none(),
                st.lists(
                    st.sampled_from([0.0, 1.0]),
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
            kwargs = dict(
                sensitivity_caps=None if caps is None else np.array(caps),
                path_mask=None if mask is None else np.array(mask, dtype=bool),
            )
            _, scipy_mlu = solve_on(scipy_backend, mesh4_paths, demand, **kwargs)
            _, highs_mlu = solve_on(highs_backend, mesh4_paths, demand, **kwargs)
            assert highs_mlu == pytest.approx(scipy_mlu, abs=1e-9)

        check()

    def test_demand_below_the_default_tolerance_is_still_routed(
        self, mesh4_paths, backends, solve_on
    ):
        # A pair demanding 2**-24 (under HiGHS's default 1e-7 feasibility
        # tolerance) beside two unit demands: the optimum is (1 + 2**-24) / 30,
        # and the persistent model once returned 1/30 with that pair unrouted.
        scipy_backend, highs_backend = backends
        demand = np.zeros(mesh4_paths.num_sd_pairs)
        demand[0], demand[5], demand[10] = 2.0**-24, 1.0, 1.0
        _, scipy_mlu = solve_on(scipy_backend, mesh4_paths, demand)
        _, highs_mlu = solve_on(highs_backend, mesh4_paths, demand)
        assert scipy_mlu == pytest.approx((1.0 + 2.0**-24) / 30.0, abs=1e-12)
        assert highs_mlu == pytest.approx(scipy_mlu, abs=1e-12)

    def test_highs_configuration_achieves_the_optimal_mlu(
        self, mesh4_paths, rng, backends, solve_on
    ):
        # Degenerate LPs may have several optimal vertices, so the *ratios*
        # can differ between solvers; what must hold is that the highs
        # configuration actually achieves the reported (shared) optimum.
        _, highs_backend = backends
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.2
        config, mlu = solve_on(highs_backend, mesh4_paths, demand)
        achieved = max_link_utilization(mesh4_paths, config, demand)
        assert achieved == pytest.approx(mlu, abs=1e-6)

    def test_caps_respected_by_highs_backend(self, mesh4_paths, rng, backends, solve_on):
        # The caps the persistent model takes: 0 (a failed path) or 1.
        _, highs_backend = backends
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.2
        caps = np.ones(mesh4_paths.num_paths)
        caps[::3] = 0.0  # every pair loses its first (shortest) path
        config, _ = solve_on(highs_backend, mesh4_paths, demand, sensitivity_caps=caps)
        assert (config.split_ratios[::3] == 0.0).all()

    def test_highs_backend_rejects_a_fractional_bound(self, mesh4_paths, rng, backends):
        # No mask produces one, but the backend can be called directly.
        _, highs_backend = backends
        demand = rng.random(mesh4_paths.num_sd_pairs) + 0.2
        upper = np.ones(mesh4_paths.num_paths)
        upper[4] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            highs_backend.solve_mlu(mesh4_paths, demand, upper)
        assert highs_backend.num_models == 0

    def test_tolerance_sized_flow_does_not_become_a_negative_ratio(
        self, tor_scenario_small, backends, solve_on
    ):
        # The solver's feasibility tolerance is absolute (in flow units), so
        # a pair whose whole demand is that small can be left with a slightly
        # negative flow on one path (at 1e-10, pair 30's first, -2e-10);
        # divided by the demand it would come back as a ratio of -2, which
        # TEConfiguration rightly refuses.  1e-7 was that size at HiGHS's
        # default tolerance, where the two small pairs also went unrouted and
        # the MLU came back 1/30 instead of (1 + 1e-7) / 30.
        _, paths, _ = tor_scenario_small
        scipy_backend, highs_backend = backends
        for small in (1e-7, 1e-10):
            demand = np.zeros(paths.num_sd_pairs)
            demand[30], demand[44], demand[47] = small, small, 1.0
            config, mlu = solve_on(highs_backend, paths, demand)
            assert config.split_ratios.min() >= 0.0
            np.testing.assert_allclose(
                paths.sd_to_path @ config.split_ratios, 1.0, atol=1e-9
            )
            _, reference_mlu = solve_on(scipy_backend, paths, demand)
            assert mlu == pytest.approx(reference_mlu, abs=1e-9)


class TestHistoryIndependence:
    """A highs result is a function of (model, demand), not of what ran before."""

    def test_hypothesis_same_bits_after_any_solve_sequence(
        self, tor_scenario_small, solve_on
    ):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.solvers.lp import _resolved_upper_bounds, constraint_structure
        from repro.solvers.lp_backend import PersistentHighsBackend

        _, paths, traffic = tor_scenario_small
        num_pairs, num_paths = paths.num_sd_pairs, paths.num_paths
        first_paths = np.searchsorted(paths.path_sd_index, np.arange(num_pairs))
        trace = traffic.flat_demands()

        no_first_path = np.ones(num_paths, dtype=bool)
        no_first_path[first_paths[::2]] = False
        pair_masked = np.ones(num_paths, dtype=bool)
        pair_masked[paths.path_sd_index == 3] = False  # relaxed: re-enabled
        masks = st.one_of(
            st.sampled_from([None, no_first_path, pair_masked]),
            st.lists(st.booleans(), min_size=num_paths, max_size=num_paths).map(np.array),
        )
        demand = st.one_of(
            st.sampled_from([np.zeros(num_pairs), *trace[:8]]),
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=num_pairs, max_size=num_pairs
            ).map(np.array),
        )
        solve = st.tuples(masks, demand, st.booleans())

        def run(backend, job):
            mask, demand, value_only = job
            if value_only:
                upper = _resolved_upper_bounds(paths, constraint_structure(paths), None, mask)
                return None, backend.solve_mlu(paths, demand, upper)
            config, mlu = solve_on(backend, paths, demand, path_mask=mask)
            return config.split_ratios, mlu

        used = PersistentHighsBackend()  # one history across all examples, too

        @settings(max_examples=40, deadline=None)
        @given(history=st.lists(solve, max_size=4), mask=masks, demand=demand)
        def check(history, mask, demand):
            for job in history:
                run(used, job)
            for value_only in (False, True):
                job = (mask, demand, value_only)
                ratios, mlu = run(used, job)
                fresh_ratios, fresh_mlu = run(PersistentHighsBackend(), job)
                assert mlu == fresh_mlu
                assert value_only or np.array_equal(ratios, fresh_ratios)

        check()


class TestInfeasibleLP:
    """Both solvers surface failures as LPSolveError with a message."""

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

    @staticmethod
    def _solve_infeasible(solve_on, path_set, solver):
        # A non-None mask routes past the trivial-bounds fast path into the
        # (patched) _ratio_upper_bounds.
        solve_on(
            solver,
            path_set,
            np.ones(path_set.num_sd_pairs),
            path_mask=np.ones(path_set.num_paths, dtype=bool),
        )

    def test_scipy_backend_raises_with_solver_message(
        self, mesh4_paths, force_zero_upper, solve_on
    ):
        from repro.solvers.lp_backend import ScipyLinprogBackend

        with pytest.raises(LPSolveError, match="MLU LP failed: .+"):
            self._solve_infeasible(solve_on, mesh4_paths, ScipyLinprogBackend())

    def test_highs_backend_raises_with_solver_message(
        self, mesh4_paths, force_zero_upper, solve_on
    ):
        from repro.solvers.lp_backend import PersistentHighsBackend

        # No pair has a usable path, so there is no routing to start from:
        # the model solves from scratch and the solver's own status is named.
        with pytest.raises(LPSolveError, match="MLU LP failed: Infeasible"):
            self._solve_infeasible(solve_on, mesh4_paths, PersistentHighsBackend())
