"""Streaming-evaluation equivalence suite.

The streaming subsystem's contract: replaying a trace chunk by chunk --
including from a one-shot row iterator that never materialises the trace --
produces results identical (within 1e-9) to the whole-trace batch replay,
which PR 1 already pinned to the seed's per-timestep replay.  These tests
close the triangle ``streaming == batch == per-timestep`` for every chunk
size, in particular chunk boundaries that split a history window
(``chunk_size < history_len``).

Set ``REPRO_LP_WORKERS`` (CI does, with 2) to run the engines here with a
process pool under the cold LP batches: a default cache follows the variable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import available_backends, get_backend
from repro.core import Dote, TrainingConfig
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import OmniscientTE, PredictionBasedTE, omniscient_mlu
from repro.te.mlu import max_link_utilization
from repro.traffic.windows import build_history_windows, iter_window_chunks

HISTORY = 4
TOL = 1e-9


def make_engine() -> EvaluationEngine:
    return EvaluationEngine()


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


def _assert_same_bytes(streamed, batch):
    """One chunk holding the whole trace *is* the batch replay."""
    for series in ("raw_mlus", "optimal_mlus", "normalized_mlus"):
        assert getattr(streamed, series).tobytes() == getattr(batch, series).tobytes(), series


def _collect_chunks(source, history_len, chunk_size, oracle_demand=False):
    windows, targets, starts = [], [], []
    for w, t, s in iter_window_chunks(
        source, history_len, chunk_size, oracle_demand=oracle_demand
    ):
        windows.append(np.asarray(w))
        targets.append(np.asarray(t))
        starts.append(s)
    return windows, targets, starts


class TestIterWindowChunks:
    """Chunked windows must concatenate to the whole-trace windows exactly."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, HISTORY - 1, 7, 16, 1000])
    @pytest.mark.parametrize("as_stream", [False, True])
    def test_chunks_concatenate_to_full_windows(
        self, mesh4_traffic, chunk_size, as_stream
    ):
        flat = mesh4_traffic[:30].flat_demands()
        full_windows, full_targets = build_history_windows(flat, HISTORY)
        source = (row for row in flat) if as_stream else flat
        windows, targets, starts = _collect_chunks(source, HISTORY, chunk_size)
        np.testing.assert_array_equal(np.concatenate(windows), full_windows)
        np.testing.assert_array_equal(np.concatenate(targets), full_targets)
        # Starts are the cumulative interval offsets and chunks are bounded.
        expected_start = 0
        for chunk_targets, start in zip(targets, starts):
            assert start == expected_start
            assert 1 <= len(chunk_targets) <= chunk_size
            expected_start += len(chunk_targets)
        assert expected_start == len(full_targets)

    @pytest.mark.parametrize("as_stream", [False, True])
    def test_oracle_chunks_match_full_windows(self, mesh4_traffic, as_stream):
        flat = mesh4_traffic[:20].flat_demands()
        full_windows, full_targets = build_history_windows(
            flat, HISTORY, oracle_demand=True
        )
        source = (row for row in flat) if as_stream else flat
        windows, targets, _ = _collect_chunks(
            source, HISTORY, 3, oracle_demand=True
        )
        np.testing.assert_array_equal(np.concatenate(windows), full_windows)
        np.testing.assert_array_equal(np.concatenate(targets), full_targets)

    def test_boundary_splits_history_window(self, mesh4_traffic):
        """chunk_size < history_len: every window's history spans chunks."""
        flat = mesh4_traffic[:25].flat_demands()
        full_windows, _ = build_history_windows(flat, 6)
        windows, _, _ = _collect_chunks((row for row in flat), 6, 2)
        np.testing.assert_array_equal(np.concatenate(windows), full_windows)

    @pytest.mark.parametrize("as_stream", [False, True])
    def test_too_short_trace_rejected(self, mesh4_traffic, as_stream):
        flat = mesh4_traffic[:HISTORY].flat_demands()
        source = (row for row in flat) if as_stream else flat
        with pytest.raises(ValueError, match="shorter than the history"):
            list(iter_window_chunks(source, HISTORY, 4))

    def test_bad_arguments_rejected(self, mesh4_paths, mesh4_traffic):
        flat = mesh4_traffic[:10].flat_demands()
        with pytest.raises(ValueError, match="chunk_size"):
            list(iter_window_chunks(flat, HISTORY, 0))
        with pytest.raises(ValueError, match="history"):
            list(iter_window_chunks(flat, 0, 4))
        # A trace with nothing to evaluate: one message from both replays.
        scheme, engine = PredictionBasedTE(mesh4_paths), make_engine()
        for replay in (engine.evaluate_scheme, engine.evaluate_streaming):
            for length in (HISTORY - 1, HISTORY):
                with pytest.raises(
                    ValueError, match="^test sequence is shorter than the history window$"
                ):
                    replay(scheme, mesh4_traffic[:length], HISTORY)

    def test_ragged_stream_rejected(self):
        rows = [np.ones(6), np.ones(6), np.ones(5)]
        with pytest.raises(ValueError, match="entries"):
            list(iter_window_chunks(iter(rows), 1, 8))

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.integers(min_value=2, max_value=40),
        history=st.integers(min_value=1, max_value=8),
        chunk_size=st.integers(min_value=1, max_value=50),
        as_stream=st.booleans(),
        oracle=st.booleans(),
    )
    def test_property_chunking_never_changes_windows(
        self, length, history, chunk_size, as_stream, oracle
    ):
        """For ANY (length, history, chunk) the chunks reassemble exactly."""
        rng = np.random.default_rng(length * 1000 + history * 100 + chunk_size)
        flat = rng.random((length, 5))
        if length <= history:
            with pytest.raises(ValueError):
                list(iter_window_chunks(flat, history, chunk_size, oracle))
            return
        full_windows, full_targets = build_history_windows(flat, history, oracle)
        source = (row for row in flat) if as_stream else flat
        windows, targets, _ = _collect_chunks(source, history, chunk_size, oracle)
        np.testing.assert_array_equal(np.concatenate(windows), full_windows)
        np.testing.assert_array_equal(np.concatenate(targets), full_targets)


@pytest.fixture(scope="module")
def trained_dote(request):
    """A tiny trained DOTE model (deterministic function of its window)."""
    mesh4_paths = request.getfixturevalue("mesh4_paths")
    mesh4_traffic = request.getfixturevalue("mesh4_traffic")
    train, _ = mesh4_traffic.split(0.7)
    scheme = Dote(
        mesh4_paths,
        TrainingConfig(
            epochs=2, history_len=HISTORY, hidden_sizes=(16, 16), normalize_by_optimal=False
        ),
    )
    scheme.precompute(train)
    return scheme


class TestStreamingReplayEquivalence:
    """streaming == batch == per-timestep, for LP and neural schemes."""

    #: Chunk sizes: boundary-splitting (< HISTORY), awkward strides, and
    #: one-chunk; 10x-longer-than-chunk is covered by 3 on a 40-interval trace.
    CHUNKS = [1, 2, 3, 7, 10, 1000]

    def _assert_triple_equivalence(self, scheme, test_sequence, oracle_demand=False):
        engine = make_engine()
        batch = engine.evaluate_scheme(
            scheme, test_sequence, HISTORY, oracle_demand=oracle_demand
        )
        raw, optimal, normalized = _sequential_replay(
            scheme, test_sequence, HISTORY, oracle_demand=oracle_demand
        )
        np.testing.assert_allclose(batch.raw_mlus, raw, atol=TOL)
        np.testing.assert_allclose(batch.normalized_mlus, normalized, atol=TOL)
        for chunk_size in self.CHUNKS:
            streamed = engine.evaluate_streaming(
                scheme,
                test_sequence,
                HISTORY,
                chunk_size=chunk_size,
                oracle_demand=oracle_demand,
            )
            np.testing.assert_allclose(streamed.raw_mlus, raw, atol=TOL)
            np.testing.assert_allclose(streamed.optimal_mlus, optimal, atol=TOL)
            np.testing.assert_allclose(streamed.normalized_mlus, normalized, atol=TOL)
            if chunk_size >= len(raw):
                _assert_same_bytes(streamed, batch)

    def test_lp_scheme(self, mesh4_paths, mesh4_traffic):
        self._assert_triple_equivalence(
            PredictionBasedTE(mesh4_paths), mesh4_traffic[:14]
        )

    def test_neural_scheme(self, trained_dote, mesh4_traffic):
        self._assert_triple_equivalence(trained_dote, mesh4_traffic[:16])

    def test_oracle_scheme(self, mesh4_paths, mesh4_traffic):
        self._assert_triple_equivalence(
            OmniscientTE(mesh4_paths), mesh4_traffic[:12], oracle_demand=True
        )

    def test_trace_ten_times_longer_than_chunk(self, trained_dote, mesh4_traffic):
        """The acceptance-criterion shape: chunks 10x smaller than the trace."""
        engine = make_engine()
        intervals = len(mesh4_traffic) - HISTORY  # 76 evaluation intervals
        chunk_size = intervals // 10
        assert chunk_size * 10 <= intervals
        batch = engine.evaluate_scheme(trained_dote, mesh4_traffic, HISTORY)
        streamed = engine.evaluate_streaming(
            trained_dote,
            (matrix.flat() for matrix in mesh4_traffic),  # one-shot stream
            HISTORY,
            chunk_size=chunk_size,
        )
        np.testing.assert_allclose(
            streamed.normalized_mlus, batch.normalized_mlus, atol=TOL
        )
        np.testing.assert_allclose(streamed.raw_mlus, batch.raw_mlus, atol=TOL)

    def test_stream_of_traffic_matrices(self, trained_dote, mesh4_traffic):
        """An iterable of TrafficMatrix objects is flattened lazily."""
        engine = make_engine()
        batch = engine.evaluate_scheme(trained_dote, mesh4_traffic[:20], HISTORY)
        streamed = engine.evaluate_streaming(
            trained_dote, iter(mesh4_traffic[:20]), HISTORY, chunk_size=5
        )
        np.testing.assert_allclose(
            streamed.normalized_mlus, batch.normalized_mlus, atol=TOL
        )

    def test_precomputed_normalisers_slice_identically(
        self, trained_dote, mesh4_traffic
    ):
        """optimal_mlus= uses the seed's full-trace indexing on both paths."""
        engine = make_engine()
        test = mesh4_traffic[:18]
        flat = test.flat_demands()
        optimal = np.concatenate(
            [
                np.full(HISTORY, np.nan),
                engine.optimal_mlus(trained_dote.path_set, flat[HISTORY:]),
            ]
        )
        batch = engine.evaluate_scheme(
            trained_dote, test, HISTORY, optimal_mlus=optimal
        )
        streamed = engine.evaluate_streaming(
            trained_dote, test, HISTORY, chunk_size=5, optimal_mlus=optimal
        )
        np.testing.assert_allclose(
            streamed.normalized_mlus, batch.normalized_mlus, atol=TOL
        )
        np.testing.assert_allclose(streamed.optimal_mlus, batch.optimal_mlus, atol=TOL)
        for chunk_size in (len(test) - HISTORY, 1000):
            _assert_same_bytes(
                engine.evaluate_streaming(
                    trained_dote, test, HISTORY, chunk_size=chunk_size, optimal_mlus=optimal
                ),
                batch,
            )

    @settings(max_examples=8, deadline=None)
    @given(chunk_size=st.integers(min_value=1, max_value=80))
    def test_property_random_chunk_sizes(self, replay_reference, chunk_size):
        """Any chunk size reproduces the batch replay (neural scheme)."""
        scheme, traffic, engine, batch = replay_reference
        streamed = engine.evaluate_streaming(
            scheme, traffic, HISTORY, chunk_size=chunk_size
        )
        np.testing.assert_allclose(
            streamed.normalized_mlus, batch.normalized_mlus, atol=TOL
        )


@pytest.fixture(scope="module")
def replay_reference(trained_dote, mesh4_traffic):
    """Frozen (scheme, traffic, engine, batch result) for the chunk property.

    Module-scoped so the hypothesis property re-streams against one warmed
    cache instead of re-solving the normalisers per example.
    """
    traffic = mesh4_traffic[:24]
    engine = make_engine()
    batch = engine.evaluate_scheme(trained_dote, traffic, HISTORY)
    return trained_dote, traffic, engine, batch


class TestBackendStreamingEquivalence:
    """streaming == batch == numpy reference under every local array backend.

    The numpy backend must match the default replay bit-identically; the
    float32 / pure-python backends match within their declared tolerance
    (the ~1e-6 float32 bound the GPU backends are pinned to).
    """

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("chunk_size", [3, 1000])
    def test_streaming_matches_numpy_batch(
        self, trained_dote, mesh4_traffic, backend_name, chunk_size
    ):
        test = mesh4_traffic[:20]
        reference_engine = EvaluationEngine(backend="numpy")
        reference = reference_engine.evaluate_scheme(trained_dote, test, HISTORY)
        engine = EvaluationEngine(cache=reference_engine.cache, backend=backend_name)
        tolerance = max(get_backend(backend_name).tolerance, TOL)
        batch = engine.evaluate_scheme(trained_dote, test, HISTORY)
        streamed = engine.evaluate_streaming(
            trained_dote,
            (matrix.flat() for matrix in test),  # one-shot row stream
            HISTORY,
            chunk_size=chunk_size,
        )
        np.testing.assert_allclose(
            batch.normalized_mlus, reference.normalized_mlus, atol=tolerance
        )
        np.testing.assert_allclose(
            streamed.normalized_mlus, reference.normalized_mlus, atol=tolerance
        )
        # Chunking adds no error beyond the backend's own (BLAS kernels may
        # block differently per batch shape, so float32 backends keep their
        # tolerance here too).
        np.testing.assert_allclose(streamed.raw_mlus, batch.raw_mlus, atol=tolerance)
        if backend_name == "numpy":
            np.testing.assert_array_equal(
                batch.normalized_mlus, reference.normalized_mlus
            )


class TestStreamingCacheConsistency:
    """Cache state populated by streaming replays never changes results."""

    def test_streaming_primes_cache_for_batch_replay(
        self, mesh4_paths, mesh4_traffic
    ):
        scheme = PredictionBasedTE(mesh4_paths)
        engine = make_engine()
        streamed = engine.evaluate_streaming(scheme, mesh4_traffic[:14], HISTORY, chunk_size=3)
        misses = engine.cache.misses
        batch = engine.evaluate_scheme(scheme, mesh4_traffic[:14], HISTORY)
        assert engine.cache.misses == misses  # batch replay was all hits
        np.testing.assert_allclose(
            batch.normalized_mlus, streamed.normalized_mlus, atol=TOL
        )

    def test_failure_experiment_unaffected_by_primed_cache(
        self, mesh4_paths, mesh4_traffic
    ):
        """failure_experiment gives identical output on cold & primed engines."""
        from repro.solvers import DesensitizationTE

        test = mesh4_traffic[:10]
        cold_engine = make_engine()
        primed_engine = make_engine()
        primed_engine.evaluate_streaming(
            DesensitizationTE(mesh4_paths), test, HISTORY, chunk_size=2
        )
        outcomes = []
        for engine in (cold_engine, primed_engine):
            outcomes.append(
                engine.failure_experiment(
                    [DesensitizationTE(mesh4_paths)],
                    test,
                    HISTORY,
                    num_failures=1,
                    num_trials=2,
                    seed=5,
                )
            )
        for name in outcomes[0]:
            np.testing.assert_allclose(
                outcomes[0][name], outcomes[1][name], atol=TOL
            )
