"""Batched-engine equivalence tests.

The refactor's contract: the batched, cache-aware evaluation engine produces
results numerically identical (within 1e-9) to the seed's per-timestep replay
path.  These tests pin that contract for every scheme family, the LP cache,
the window builders, and the vectorized failure rerouting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Dote, Figret, TealLike, TrainingConfig
from repro.core.trainer import build_windows, fit_history_window
from repro.evaluation.engine import EvaluationEngine, ReplaySession, build_history_windows
from repro.solvers import (
    DesensitizationTE,
    OmniscientTE,
    OptimalMLUCache,
    PredictionBasedTE,
    omniscient_mlu,
    solve_mlu_lp,
    solve_mlu_lp_batch,
)
from repro.te.config import TEConfiguration
from repro.te.failures import (
    reroute_around_failures,
    reroute_ratios_around_failures,
    sample_failed_links,
)
from repro.te.mlu import max_link_utilization
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence

HISTORY = 4
TOL = 1e-9


def _sequential_replay(scheme, test_sequence, history_len, oracle_demand=False):
    """Reference implementation: the seed's per-timestep replay loop."""
    flat = test_sequence.flat_demands()
    raw, optimal, normalized = [], [], []
    for t in range(history_len, len(flat)):
        history = flat[t - history_len : t]
        if oracle_demand:
            history = np.vstack([history, flat[t]])
        config = scheme.configure(history)
        mlu = max_link_utilization(scheme.path_set, config, flat[t])
        best = omniscient_mlu(scheme.path_set, flat[t])
        raw.append(mlu)
        optimal.append(best)
        normalized.append(mlu / best)
    return np.array(raw), np.array(optimal), np.array(normalized)


@pytest.fixture(scope="module")
def trained_neural_schemes(request):
    """Tiny trained neural schemes on the mesh4 scenario (shared per module)."""
    mesh4_paths = request.getfixturevalue("mesh4_paths")
    mesh4_traffic = request.getfixturevalue("mesh4_traffic")
    train, _ = mesh4_traffic.split(0.7)
    config = TrainingConfig(
        epochs=2, history_len=HISTORY, hidden_sizes=(16, 16), normalize_by_optimal=False
    )
    schemes = [
        Figret(mesh4_paths, config.replace(robustness_weight=0.1)),
        Dote(mesh4_paths, config),
        TealLike(mesh4_paths, config),
    ]
    for scheme in schemes:
        scheme.precompute(train)
    return schemes


class TestWindowBuilder:
    def test_windows_match_python_loop(self, mesh4_traffic):
        flat = mesh4_traffic[:20].flat_demands()
        windows, targets = build_history_windows(flat, HISTORY)
        assert windows.shape == (len(flat) - HISTORY, HISTORY, flat.shape[1])
        for i in range(len(windows)):
            np.testing.assert_array_equal(windows[i], flat[i : i + HISTORY])
            np.testing.assert_array_equal(targets[i], flat[i + HISTORY])

    def test_oracle_windows_carry_true_demand(self, mesh4_traffic):
        flat = mesh4_traffic[:15].flat_demands()
        windows, targets = build_history_windows(flat, HISTORY, oracle_demand=True)
        assert windows.shape == (len(flat) - HISTORY, HISTORY + 1, flat.shape[1])
        for i in range(len(windows)):
            np.testing.assert_array_equal(windows[i, -1], targets[i])
            np.testing.assert_array_equal(windows[i, :-1], flat[i : i + HISTORY])

    def test_too_short_sequence_rejected(self, mesh4_traffic):
        flat = mesh4_traffic[:4].flat_demands()
        with pytest.raises(ValueError):
            build_history_windows(flat, 4)

    def test_trainer_build_windows_matches_loop(self, mesh4_traffic):
        sequence = mesh4_traffic[:20]
        inputs, targets = build_windows(sequence, HISTORY)
        expected_inputs, expected_targets = [], []
        for window, target in sequence.windows(HISTORY):
            expected_inputs.append(window.reshape(-1))
            expected_targets.append(target)
        np.testing.assert_array_equal(inputs, np.stack(expected_inputs))
        np.testing.assert_array_equal(targets, np.stack(expected_targets))

    def test_trainer_build_windows_too_short(self, mesh4_traffic):
        with pytest.raises(ValueError):
            build_windows(mesh4_traffic[:3], 5)

    def test_fit_history_window_trims_and_pads(self):
        window = np.arange(12, dtype=float).reshape(4, 3)
        np.testing.assert_array_equal(fit_history_window(window, 2), window[-2:])
        padded = fit_history_window(window, 6)
        np.testing.assert_array_equal(padded[:3], np.repeat(window[:1], 3, axis=0))
        np.testing.assert_array_equal(padded[2:], window)
        batch = np.stack([window, window + 1.0])
        trimmed = fit_history_window(batch, 2)
        np.testing.assert_array_equal(trimmed, batch[:, -2:, :])


class TestConfigureBatchEquivalence:
    def _assert_batch_matches_loop(self, scheme, windows):
        batched = scheme.configure_batch(windows)
        assert batched.shape == (len(windows), scheme.path_set.num_paths)
        for i, window in enumerate(windows):
            expected = scheme.configure(window).split_ratios
            np.testing.assert_allclose(batched[i], expected, atol=TOL)

    def test_lp_schemes_fallback(self, mesh4_paths, mesh4_traffic):
        windows, _ = build_history_windows(mesh4_traffic[:12].flat_demands(), HISTORY)
        self._assert_batch_matches_loop(PredictionBasedTE(mesh4_paths), windows)
        self._assert_batch_matches_loop(DesensitizationTE(mesh4_paths), windows)

    def test_neural_schemes_vectorized(self, trained_neural_schemes, mesh4_traffic):
        windows, _ = build_history_windows(mesh4_traffic[:16].flat_demands(), HISTORY)
        for scheme in trained_neural_schemes:
            self._assert_batch_matches_loop(scheme, windows)

    def test_batch_ratios_are_valid_splits(self, trained_neural_schemes, mesh4_traffic):
        windows, _ = build_history_windows(mesh4_traffic[:12].flat_demands(), HISTORY)
        for scheme in trained_neural_schemes:
            batched = scheme.configure_batch(windows)
            assert (batched >= -TOL).all()
            pair_sums = (scheme.path_set.sd_to_path @ batched.T).T
            np.testing.assert_allclose(pair_sums, 1.0, atol=1e-6)

    def test_untrained_neural_batch_raises(self, mesh4_paths, mesh4_traffic):
        windows, _ = build_history_windows(mesh4_traffic[:10].flat_demands(), HISTORY)
        with pytest.raises(RuntimeError):
            Dote(mesh4_paths).configure_batch(windows)

    def test_batch_matches_per_window_loop(self, trained_neural_schemes, mesh4_traffic):
        """configure_batch tracks the per-window ``configure`` loop."""
        windows, _ = build_history_windows(mesh4_traffic[:12].flat_demands(), HISTORY)
        for scheme in trained_neural_schemes:
            batched = scheme.configure_batch(windows)
            for i, window in enumerate(windows):
                expected = scheme.configure(window).split_ratios
                np.testing.assert_allclose(batched[i], expected, atol=TOL)


class TestEvaluateSchemeEquivalence:
    @pytest.mark.parametrize("oracle_demand", [False, True])
    def test_lp_scheme_matches_sequential(self, mesh4_paths, mesh4_traffic, oracle_demand):
        test = mesh4_traffic[:14]
        scheme = OmniscientTE(mesh4_paths) if oracle_demand else PredictionBasedTE(mesh4_paths)
        result = EvaluationEngine().evaluate_scheme(
            scheme, test, HISTORY, oracle_demand=oracle_demand
        )
        raw, optimal, normalized = _sequential_replay(
            scheme, test, HISTORY, oracle_demand=oracle_demand
        )
        np.testing.assert_allclose(result.raw_mlus, raw, atol=TOL)
        np.testing.assert_allclose(result.optimal_mlus, optimal, atol=TOL)
        np.testing.assert_allclose(result.normalized_mlus, normalized, atol=TOL)

    def test_neural_schemes_match_sequential(self, trained_neural_schemes, mesh4_traffic):
        test = mesh4_traffic[:14]
        for scheme in trained_neural_schemes:
            result = EvaluationEngine().evaluate_scheme(scheme, test, HISTORY)
            raw, optimal, normalized = _sequential_replay(scheme, test, HISTORY)
            np.testing.assert_allclose(result.raw_mlus, raw, atol=TOL)
            np.testing.assert_allclose(result.normalized_mlus, normalized, atol=TOL)

    def test_zero_demand_interval_does_not_divide_by_zero(self, mesh4_paths):
        rng = np.random.default_rng(0)
        matrices = [rng.random((4, 4)) for _ in range(8)]
        matrices.append(np.zeros((4, 4)))  # an all-zero demand interval
        matrices.extend(rng.random((4, 4)) for _ in range(2))
        sequence = TrafficMatrixSequence([TrafficMatrix(m) for m in matrices])
        result = EvaluationEngine().evaluate_scheme(
            PredictionBasedTE(mesh4_paths), sequence, HISTORY
        )
        assert np.isfinite(result.normalized_mlus).all()

    def test_zero_demand_with_explicit_zero_normaliser(self, mesh4_paths, mesh4_traffic):
        test = mesh4_traffic[:10]
        # A zero normaliser row used to divide by zero; now it is floored.
        optimal = np.zeros(len(test))
        result = EvaluationEngine().evaluate_scheme(
            PredictionBasedTE(mesh4_paths), test, HISTORY, optimal_mlus=optimal
        )
        assert np.isfinite(result.normalized_mlus).all()


class TestCompareSchemes:
    """Schemes compared under one normaliser must share one path set.

    Pinned at the engine's multi-scheme failure replay.  A study builds every
    scheme of a scenario on that scenario's own path set, so its scheme axis
    cannot mix two.
    """

    def test_mismatched_path_sets_rejected(self, mesh4_paths, triangle_paths, mesh4_traffic):
        schemes = [PredictionBasedTE(mesh4_paths), PredictionBasedTE(triangle_paths)]
        with pytest.raises(ValueError, match="share one PathSet"):
            EvaluationEngine().failure_experiment(
                schemes, mesh4_traffic[:12], HISTORY, num_failures=1, num_trials=1
            )

    def test_structurally_equal_path_sets_accepted(self, mesh4_topology, mesh4_traffic):
        from repro.paths.ksp import build_ksp_path_set

        paths_a = build_ksp_path_set(mesh4_topology, k=3)
        paths_b = build_ksp_path_set(mesh4_topology, k=3)
        schemes = [PredictionBasedTE(paths_a), DesensitizationTE(paths_b)]
        failures = EvaluationEngine().failure_experiment(
            schemes, mesh4_traffic[:12], HISTORY, num_failures=1, num_trials=1
        )
        assert set(failures) == {"Pred TE (last)", "Des TE"}


class TestOptimalMLUCache:
    def test_cached_values_match_fresh_solves(self, mesh4_paths, mesh4_traffic):
        demands = mesh4_traffic[:10].flat_demands()
        cache = OptimalMLUCache()
        cached = cache.optimal_mlus(mesh4_paths, demands)
        fresh = np.array([omniscient_mlu(mesh4_paths, d) for d in demands])
        np.testing.assert_allclose(cached, fresh, atol=TOL)

    def test_hits_and_misses_accounting(self, mesh4_paths, mesh4_traffic):
        demands = mesh4_traffic[:6].flat_demands()
        cache = OptimalMLUCache()
        cache.optimal_mlus(mesh4_paths, demands)
        assert cache.misses == len(demands)
        assert cache.hits == 0
        cache.optimal_mlus(mesh4_paths, demands)
        assert cache.hits == len(demands)

    def test_duplicate_rows_solved_once(self, mesh4_paths):
        demand = np.full(mesh4_paths.num_sd_pairs, 2.0)
        cache = OptimalMLUCache()
        values = cache.optimal_mlus(mesh4_paths, np.stack([demand, demand, demand]))
        # Every requested row counts (hits + misses == rows), but duplicates
        # within the batch are solved only once.
        assert cache.misses == 3
        assert len(cache) == 1
        assert np.all(values == values[0])

    def test_mask_keys_are_distinct(self, mesh4_paths, mesh4_traffic, rng):
        demand = mesh4_traffic[0].flat()
        failed = sample_failed_links(mesh4_paths.topology, 1, rng)
        mask = mesh4_paths.restrict_to_working_paths(failed)
        cache = OptimalMLUCache()
        unmasked = cache.optimal_mlus(mesh4_paths, demand)[0]
        masked = cache.optimal_mlus(mesh4_paths, demand, path_mask=mask)[0]
        assert cache.misses == 2
        _, expected_masked = solve_mlu_lp(mesh4_paths, demand, path_mask=mask)
        assert masked == pytest.approx(max(expected_masked, 1e-12), abs=TOL)
        assert unmasked <= masked + TOL

    def test_eviction_bounds_size(self, mesh4_paths, mesh4_traffic, monkeypatch):
        monkeypatch.setattr("repro.solvers.lp.MAX_CACHE_ENTRIES", 3)
        demands = mesh4_traffic[:8].flat_demands()
        cache = OptimalMLUCache()
        cache.optimal_mlus(mesh4_paths, demands)
        assert len(cache) == 3

    def test_shared_across_fingerprint_equal_path_sets(self, mesh4_topology, mesh4_traffic):
        from repro.paths.ksp import build_ksp_path_set

        demands = mesh4_traffic[:4].flat_demands()
        cache = OptimalMLUCache()
        cache.optimal_mlus(build_ksp_path_set(mesh4_topology, k=3), demands)
        misses = cache.misses
        cache.optimal_mlus(build_ksp_path_set(mesh4_topology, k=3), demands)
        assert cache.misses == misses  # second path set hits the same entries


class TestConstraintStructureCache:
    def test_dropped_path_sets_are_collected(self, mesh4_topology):
        import gc

        from repro.paths.ksp import build_ksp_path_set
        from repro.solvers.lp import _STRUCTURES, constraint_structure

        before = len(_STRUCTURES)
        for _ in range(3):
            constraint_structure(build_ksp_path_set(mesh4_topology, k=2))
        gc.collect()
        # The structures must not pin their PathSet keys alive.
        assert len(_STRUCTURES) <= before + 1

    def test_structure_reused_for_same_path_set(self, mesh4_paths):
        from repro.solvers.lp import constraint_structure

        assert constraint_structure(mesh4_paths) is constraint_structure(mesh4_paths)

    def test_wrong_demand_length_rejected(self, mesh4_paths):
        from repro.solvers.lp import constraint_structure

        with pytest.raises(ValueError, match="entries"):
            constraint_structure(mesh4_paths).a_ub(np.ones(3))


class TestBatchLPSolver:
    def test_batch_matches_individual_solves(self, mesh4_paths, mesh4_traffic):
        demands = mesh4_traffic[:5].flat_demands()
        batch = solve_mlu_lp_batch(mesh4_paths, demands)
        for demand, mlu in zip(demands, batch):
            _, expected_mlu = solve_mlu_lp(mesh4_paths, demand)
            assert mlu == pytest.approx(expected_mlu, abs=TOL)
            assert mlu == solve_mlu_lp_batch(mesh4_paths, demand)[0]

    def test_process_pool_matches_sequential(self, mesh4_paths, mesh4_traffic):
        demands = mesh4_traffic[:4].flat_demands()
        sequential = solve_mlu_lp_batch(mesh4_paths, demands)
        try:
            pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pools unavailable in this environment: {exc}")
        np.testing.assert_allclose(pooled, sequential, atol=TOL)


class TestBatchedReroute:
    def test_matches_per_config_reroute(self, mesh4_paths, rng):
        ratios = rng.random((6, mesh4_paths.num_paths))
        rows = np.stack(
            [TEConfiguration(mesh4_paths, row).split_ratios for row in ratios]
        )
        failed = sample_failed_links(mesh4_paths.topology, 2, rng)
        mask = mesh4_paths.restrict_to_working_paths(failed)
        batched = reroute_ratios_around_failures(mesh4_paths, rows, mask)
        for i in range(len(rows)):
            config = TEConfiguration(mesh4_paths, rows[i], normalize=False)
            expected = reroute_around_failures(config, failed).split_ratios
            np.testing.assert_allclose(batched[i], expected, atol=TOL)

    def test_no_failures_is_identity(self, mesh4_paths, rng):
        rows = np.stack(
            [
                TEConfiguration(mesh4_paths, rng.random(mesh4_paths.num_paths)).split_ratios
                for _ in range(3)
            ]
        )
        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        np.testing.assert_array_equal(
            reroute_ratios_around_failures(mesh4_paths, rows, mask), rows
        )

    def test_single_vector_shape(self, mesh4_paths, rng):
        row = TEConfiguration(mesh4_paths, rng.random(mesh4_paths.num_paths)).split_ratios
        failed = sample_failed_links(mesh4_paths.topology, 1, rng)
        mask = mesh4_paths.restrict_to_working_paths(failed)
        out = reroute_ratios_around_failures(mesh4_paths, row, mask)
        assert out.shape == row.shape
        expected = reroute_around_failures(
            TEConfiguration(mesh4_paths, row, normalize=False), failed
        ).split_ratios
        np.testing.assert_allclose(out, expected, atol=TOL)


class TestFailureExperimentEquivalence:
    def test_matches_sequential_reference(self, mesh4_paths, mesh4_traffic):
        from repro.solvers import FaultAwareDesensitizationTE
        from repro.solvers.lp import solve_mlu_lp as solve
        from repro.te.failures import reroute_around_failures as reroute

        test = mesh4_traffic[:8]
        schemes = [DesensitizationTE(mesh4_paths), FaultAwareDesensitizationTE(mesh4_paths)]
        engine = EvaluationEngine()
        batched = engine.failure_experiment(
            schemes, test, HISTORY, num_failures=1, num_trials=2, seed=3
        )

        # Reference: the seed's trials x timesteps x schemes triple loop.
        flat = test.flat_demands()
        rng = np.random.default_rng(3)
        expected: dict[str, list[float]] = {s.name: [] for s in schemes}
        for _ in range(2):
            failed = sample_failed_links(mesh4_paths.topology, 1, rng)
            working_mask = mesh4_paths.restrict_to_working_paths(failed)
            for scheme in schemes:
                if scheme.name == "FA Des TE":
                    scheme.set_failures(failed)
            for t in range(HISTORY, len(flat)):
                history = flat[t - HISTORY : t]
                demand = flat[t]
                _, oracle = solve(mesh4_paths, demand, path_mask=working_mask)
                oracle = max(oracle, 1e-12)
                for scheme in schemes:
                    config = scheme.configure(history)
                    if scheme.name == "FA Des TE":
                        rerouted = config
                    else:
                        rerouted = reroute(config, failed)
                    mlu = max_link_utilization(mesh4_paths, rerouted, demand)
                    expected[scheme.name].append(mlu / oracle)
        for name in expected:
            np.testing.assert_allclose(batched[name], np.array(expected[name]), atol=1e-6)


class _EvenSplit:
    """The cheapest scheme to replay: every window splits evenly."""

    name = "even"

    def __init__(self, path_set):
        self.path_set = path_set

    def configure_batch(self, windows):
        return np.full((len(windows), self.path_set.num_paths), 1.0 / 3)


class TestReplayMemoStorage:
    """The engine's memo, filled through a ``ReplaySession``: it goes with its
    scheme, and another thread may count it while a session fills it."""

    def test_memo_goes_with_its_scheme(self, mesh4_paths, mesh4_traffic):
        engine, scheme = EvaluationEngine(cache=OptimalMLUCache()), _EvenSplit(mesh4_paths)
        trace = mesh4_traffic[: HISTORY + 2]
        first = ReplaySession(engine).replay(scheme, ("mesh4", "even"), trace, HISTORY)
        assert ReplaySession(engine).replay(scheme, ("mesh4", "even"), trace, HISTORY) is first
        assert EvaluationEngine(cache=engine.cache).memoised_replays() == 0
        assert engine.memoised_replays() == 1
        del scheme
        assert engine.memoised_replays() == 0

    def test_count_while_another_thread_adds_and_frees_schemes(
        self, mesh4_paths, mesh4_traffic
    ):
        """The daemon's status thread counts while its job thread memoises."""
        import sys
        import threading

        engine = EvaluationEngine(cache=OptimalMLUCache())
        session = ReplaySession(engine)
        trace = mesh4_traffic[: HISTORY + 2]
        errors: list[BaseException] = []
        stop = threading.Event()

        def count():
            while not stop.is_set():
                try:
                    engine.memoised_replays()
                except RuntimeError as exc:  # "changed size during iteration"
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=count) for _ in range(4)]
        kept = []
        try:
            for reader in readers:
                reader.start()
            # Each scheme is a full replay (~1.6 ms against four spinning
            # readers); a count that iterates the memo uncopied fails within
            # 20 schemes, so 500 is ample.
            for index in range(500):
                scheme = _EvenSplit(mesh4_paths)
                for segment in ("a", "b", "c"):
                    session.replay(scheme, ("mesh4", "even"), trace, HISTORY, segment=segment)
                if index % 2:
                    kept.append(scheme)  # the others are freed at once
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert engine.memoised_replays() == 3 * len(kept)
