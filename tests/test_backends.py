"""Backend subsystem tests: selection, dtype plumbing, and equivalence.

Three layers:

* **Selection** -- the ``REPRO_BACKEND`` environment variable / explicit
  arguments / :func:`use_backend` overrides, the unknown-name error, and the
  warn-once numpy fallback for missing optional backends.
* **Ops** -- the generic functional op set of every locally available
  backend pinned against numpy reference results.
* **Equivalence** -- the three backend-threaded hot-path functions
  (``split_ratios_batch``, ``max_link_utilization``,
  ``reroute_ratios_around_failures``) and full engine replays, parameterized
  over every locally available backend with that backend's declared
  tolerance.  The default numpy backend is additionally pinned
  *bit-identically* (``assert_array_equal``) to the engine's output.

The suites run under any ``REPRO_BACKEND`` value (the CI backend matrix
exports one); every test pins the backends it compares explicitly.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    available_backends,
    get_backend,
    importable_backends,
    resolve_backend,
    use_backend,
)
from repro.core import Dote, TrainingConfig
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import PredictionBasedTE
from repro.te.config import TEConfiguration
from repro.te.failures import reroute_ratios_around_failures
from repro.te.mlu import max_link_utilization
from repro.traffic.windows import build_history_windows

HISTORY = 4


LOCAL_BACKENDS = importable_backends()
MISSING_OPTIONAL = [
    name for name in ("torch",) if importlib.util.find_spec(name) is None
]


@pytest.fixture(scope="module")
def trained_dote(request):
    """A tiny trained DOTE (deterministic function of its window)."""
    mesh4_paths = request.getfixturevalue("mesh4_paths")
    mesh4_traffic = request.getfixturevalue("mesh4_traffic")
    train, _ = mesh4_traffic.split(0.6)
    scheme = Dote(
        mesh4_paths,
        TrainingConfig(
            epochs=2, history_len=HISTORY, hidden_sizes=(16, 16), normalize_by_optimal=False
        ),
    )
    scheme.precompute(train)
    return scheme


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(backend_mod.BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"
        assert get_backend().native_numpy

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "python")
        assert backend_mod.active_backend().name == "python"
        # Explicit names beat the environment.
        assert get_backend("numpy32").name == "numpy32"

    def test_unknown_name_raises_from_env(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "no-such-backend")
        with pytest.raises(ValueError, match="unknown array backend 'no-such-backend'"):
            backend_mod.active_backend()

    def test_unknown_name_raises_with_known_choices(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("tensorflow")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_auto_resolves_to_an_importable_backend(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "auto")
        assert backend_mod.active_backend().name in available_backends()

    @pytest.mark.skipif(
        not MISSING_OPTIONAL, reason="every optional backend is installed here"
    )
    def test_missing_optional_falls_back_with_single_warning(self, monkeypatch):
        name = MISSING_OPTIONAL[0]
        monkeypatch.setattr(backend_mod, "_FALLBACK_WARNED", set())
        monkeypatch.delitem(backend_mod._INSTANCES, name, raising=False)
        with pytest.warns(RuntimeWarning, match=f"{name}.*falling back to numpy"):
            assert get_backend(name).name == "numpy"
        # The second resolution is silent (one warning per process) and hits
        # the instance cache instead of re-attempting the failed import --
        # REPRO_BACKEND set to a missing backend resolves on every hot-path
        # call, so the miss must not pay a module scan each time.
        assert backend_mod._INSTANCES[name].name == "numpy"
        with warnings_none():
            assert get_backend(name) is backend_mod._INSTANCES[name]

    def test_use_backend_overrides_and_restores(self, monkeypatch):
        monkeypatch.delenv(backend_mod.BACKEND_ENV_VAR, raising=False)
        assert backend_mod.active_backend().name == "numpy"
        with use_backend("python") as active:
            assert active.name == "python"
            assert backend_mod.active_backend().name == "python"
            with use_backend("numpy32"):
                assert backend_mod.active_backend().name == "numpy32"
            assert backend_mod.active_backend().name == "python"
        assert backend_mod.active_backend().name == "numpy"

    def test_use_backend_none_is_a_no_op(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "python")
        with use_backend(None) as active:
            assert active.name == "python"

    def test_resolve_backend_passthrough(self):
        instance = get_backend("numpy32")
        assert resolve_backend(instance) is instance
        assert resolve_backend("numpy").name == "numpy"

    def test_bad_dtype_env_rejected(self, monkeypatch):
        monkeypatch.setenv(backend_mod.DTYPE_ENV_VAR, "float16")
        with pytest.raises(ValueError, match="float32.*float64"):
            backend_mod._gpu_dtype()


class warnings_none:
    """Context asserting that no warning is emitted inside it."""

    def __enter__(self):
        import warnings

        self._catcher = warnings.catch_warnings(record=True)
        self._records = self._catcher.__enter__()
        import warnings as w

        w.simplefilter("always")
        return self._records

    def __exit__(self, exc_type, exc, tb):
        self._catcher.__exit__(exc_type, exc, tb)
        if exc_type is None:
            assert not self._records, f"unexpected warnings: {self._records}"


class TestDtypeRoundTrip:
    @pytest.mark.parametrize("name", [n for n in LOCAL_BACKENDS if n != "python"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_dtypes_round_trip(self, name, dtype):
        backend = get_backend(name)
        values = np.linspace(0.0, 1.0, 7, dtype=dtype)
        restored = backend.to_numpy(backend.asarray(values))
        assert restored.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(restored, values)

    def test_python_backend_computes_in_float64(self):
        backend = get_backend("python")
        values = np.linspace(0.0, 1.0, 5, dtype=np.float32)
        restored = backend.to_numpy(backend.asarray(values))
        assert restored.dtype == np.float64
        np.testing.assert_allclose(restored, values, atol=1e-7)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_compute_dtype_is_honoured(self, name):
        backend = get_backend(name)
        converted = backend.to_numpy(
            backend.asarray(np.ones(3), dtype=backend.compute_dtype)
        )
        assert converted.dtype == np.dtype(backend.compute_dtype)


class TestGenericOps:
    """Every backend's functional ops pinned against numpy references."""

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_segment_sum_and_take_last(self, name, rng):
        backend = get_backend(name)
        values = rng.random((3, 6))
        segments = np.array([0, 0, 1, 2, 2, 2])
        native = backend.asarray(values, dtype=backend.compute_dtype)
        index = backend.index_array(segments)
        sums = backend.to_numpy(backend.segment_sum(native, index, 3))
        expected = np.zeros((3, 3))
        np.add.at(expected, (slice(None), segments), values)
        np.testing.assert_allclose(sums, expected, atol=1e-6)
        gathered = backend.to_numpy(backend.take_last(native, index))
        np.testing.assert_allclose(gathered, values[:, segments], atol=1e-6)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_matmul_add_broadcast(self, name, rng):
        backend = get_backend(name)
        a, b = rng.random((4, 3)), rng.random((3, 2))
        bias = rng.random(2)
        native = backend.add(
            backend.matmul(
                backend.asarray(a, dtype=backend.compute_dtype),
                backend.asarray(b, dtype=backend.compute_dtype),
            ),
            backend.asarray(bias, dtype=backend.compute_dtype),
        )
        np.testing.assert_allclose(backend.to_numpy(native), a @ b + bias, atol=1e-6)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_where_with_scalars_and_row_broadcast(self, name, rng):
        backend = get_backend(name)
        values = rng.random((3, 5)) - 0.5
        row = rng.random(5)
        native = backend.asarray(values, dtype=backend.compute_dtype)
        condition = backend.greater(native, 0.0)
        clamped = backend.to_numpy(backend.where(condition, native, 0.0))
        np.testing.assert_allclose(clamped, np.where(values > 0, values, 0.0), atol=1e-6)
        rowed = backend.to_numpy(
            backend.where(
                condition, backend.asarray(row, dtype=backend.compute_dtype), native
            )
        )
        np.testing.assert_allclose(rowed, np.where(values > 0, row, values), atol=1e-6)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_activations_and_max(self, name, rng):
        backend = get_backend(name)
        values = rng.standard_normal((2, 7)) * 3
        native = backend.asarray(values, dtype=backend.compute_dtype)
        np.testing.assert_allclose(
            backend.to_numpy(backend.relu(native)), np.maximum(values, 0.0), atol=1e-6
        )
        np.testing.assert_allclose(
            backend.to_numpy(backend.sigmoid(native)),
            1.0 / (1.0 + np.exp(-values)),
            atol=1e-6,
        )
        np.testing.assert_allclose(
            backend.to_numpy(backend.max_last(native)), values.max(axis=-1), atol=1e-6
        )


class TestHotPathEquivalence:
    """Backend hot paths pinned to the numpy reference per-backend tolerance."""

    @staticmethod
    def _tolerance(name: str) -> float:
        return max(get_backend(name).tolerance, 1e-12)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_split_ratios_batch(self, name, trained_dote, mesh4_traffic):
        flat = mesh4_traffic[:16].flat_demands()
        windows, _ = build_history_windows(flat, HISTORY)
        with use_backend("numpy"):
            reference = trained_dote.configure_batch(windows)
        with use_backend(name):
            ratios = trained_dote.configure_batch(windows)
        np.testing.assert_allclose(ratios, reference, atol=self._tolerance(name))
        # Rows remain valid per-pair distributions.
        pair_sums = (trained_dote.path_set.sd_to_path @ np.asarray(ratios).T).T
        np.testing.assert_allclose(pair_sums, 1.0, atol=1e-5)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_max_link_utilization_batch_and_single(
        self, name, trained_dote, mesh4_paths, mesh4_traffic
    ):
        flat = mesh4_traffic[:14].flat_demands()
        windows, targets = build_history_windows(flat, HISTORY)
        ratios = trained_dote.configure_batch(windows)
        reference = max_link_utilization(mesh4_paths, ratios, targets, backend="numpy")
        computed = max_link_utilization(mesh4_paths, ratios, targets, backend=name)
        np.testing.assert_allclose(computed, reference, atol=self._tolerance(name))
        # Single demand vector: a scalar, also through a TEConfiguration.
        config = TEConfiguration(mesh4_paths, ratios[0], normalize=True)
        single_ref = max_link_utilization(mesh4_paths, config, targets[0], backend="numpy")
        single = max_link_utilization(mesh4_paths, config, targets[0], backend=name)
        assert isinstance(single, float)
        assert single == pytest.approx(single_ref, abs=self._tolerance(name))

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_max_link_utilization_rejects_bad_demand(self, name, mesh4_paths):
        ratios = np.full(mesh4_paths.num_paths, 0.5)
        with pytest.raises(ValueError, match="entries"):
            max_link_utilization(mesh4_paths, ratios, np.ones(3), backend=name)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_reroute_around_failures(self, name, trained_dote, mesh4_paths, mesh4_traffic):
        flat = mesh4_traffic[:14].flat_demands()
        windows, _ = build_history_windows(flat, HISTORY)
        ratios = np.asarray(trained_dote.configure_batch(windows))
        # Fail every path of pair (0, 1) plus one path of pair (0, 2): the
        # first pair exercises the partitioned-uniform branch, the second
        # the proportional redistribution, everything else stays untouched.
        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        mask[list(mesh4_paths.path_indices_for(0, 1))] = False
        mask[mesh4_paths.path_indices_for(0, 2)[0]] = False
        reference = reroute_ratios_around_failures(
            mesh4_paths, ratios, mask, backend="numpy"
        )
        rerouted = reroute_ratios_around_failures(mesh4_paths, ratios, mask, backend=name)
        np.testing.assert_allclose(rerouted, reference, atol=self._tolerance(name))
        # Single-row input keeps its shape.
        single = reroute_ratios_around_failures(
            mesh4_paths, ratios[0], mask, backend=name
        )
        np.testing.assert_allclose(single, reference[0], atol=self._tolerance(name))
        # An all-working mask is an exact pass-through on every backend.
        untouched = reroute_ratios_around_failures(
            mesh4_paths, ratios, np.ones_like(mask), backend=name
        )
        np.testing.assert_array_equal(untouched, ratios)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_zero_surviving_mass_goes_uniform(self, name, mesh4_paths):
        """A pair whose surviving paths carried no mass splits uniformly."""
        ratios = np.zeros(mesh4_paths.num_paths)
        indices = list(mesh4_paths.path_indices_for(0, 1))
        ratios[indices[0]] = 1.0
        for src, dst in mesh4_paths.sd_pairs:
            if (src, dst) != (0, 1):
                ratios[mesh4_paths.path_indices_for(src, dst)[0]] = 1.0
        mask = np.ones(mesh4_paths.num_paths, dtype=bool)
        mask[indices[0]] = False
        rerouted = reroute_ratios_around_failures(mesh4_paths, ratios, mask, backend=name)
        survivors = [i for i in indices if mask[i]]
        np.testing.assert_allclose(
            rerouted[survivors], 1.0 / len(survivors), atol=self._tolerance(name)
        )
        assert rerouted[indices[0]] == pytest.approx(0.0, abs=self._tolerance(name))


class TestEngineBackendEquivalence:
    """Full replays across backends, and numpy bit-identicality."""

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_batch_and_streaming_replay(self, name, trained_dote, mesh4_traffic):
        test = mesh4_traffic[:18]
        reference_engine = EvaluationEngine(backend="numpy")
        reference = reference_engine.evaluate_scheme(trained_dote, test, HISTORY)
        engine = EvaluationEngine(cache=reference_engine.cache, backend=name)
        tolerance = max(get_backend(name).tolerance, 1e-12)
        result = engine.evaluate_scheme(trained_dote, test, HISTORY)
        np.testing.assert_allclose(
            result.normalized_mlus, reference.normalized_mlus, atol=tolerance
        )
        streamed = engine.evaluate_streaming(trained_dote, test, HISTORY, chunk_size=5)
        np.testing.assert_allclose(
            streamed.normalized_mlus, reference.normalized_mlus, atol=tolerance
        )

    def test_numpy_backend_is_bit_identical(self, trained_dote, mesh4_traffic, monkeypatch):
        """REPRO_BACKEND=numpy replay equals the engine's default output bit for bit."""
        test = mesh4_traffic[:16]
        monkeypatch.delenv(backend_mod.BACKEND_ENV_VAR, raising=False)
        implicit = EvaluationEngine().evaluate_scheme(trained_dote, test, HISTORY)
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "numpy")
        via_env = EvaluationEngine().evaluate_scheme(trained_dote, test, HISTORY)
        pinned = EvaluationEngine(backend="numpy").evaluate_scheme(
            trained_dote, test, HISTORY
        )
        np.testing.assert_array_equal(via_env.normalized_mlus, implicit.normalized_mlus)
        np.testing.assert_array_equal(via_env.raw_mlus, implicit.raw_mlus)
        np.testing.assert_array_equal(pinned.normalized_mlus, implicit.normalized_mlus)
        np.testing.assert_array_equal(pinned.raw_mlus, implicit.raw_mlus)

    def test_engine_backend_beats_environment(self, trained_dote, mesh4_traffic, monkeypatch):
        test = mesh4_traffic[:12]
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "numpy32")
        pinned = EvaluationEngine(backend="numpy")
        assert pinned.backend is not None and pinned.backend.name == "numpy"
        result = pinned.evaluate_scheme(trained_dote, test, HISTORY)
        reference = EvaluationEngine(backend="numpy").evaluate_scheme(
            trained_dote, test, HISTORY
        )
        np.testing.assert_array_equal(result.normalized_mlus, reference.normalized_mlus)

    @pytest.mark.parametrize("name", LOCAL_BACKENDS)
    def test_failure_experiment_across_backends(self, name, mesh4_paths, mesh4_traffic):
        test = mesh4_traffic[:10]
        tolerance = max(get_backend(name).tolerance * 10, 1e-9)
        outcomes = []
        for backend_name in ("numpy", name):
            engine = EvaluationEngine(backend=backend_name)
            outcomes.append(
                engine.failure_experiment(
                    [PredictionBasedTE(mesh4_paths)],
                    test,
                    HISTORY,
                    num_failures=1,
                    num_trials=2,
                    seed=11,
                )
            )
        for key in outcomes[0]:
            np.testing.assert_allclose(outcomes[0][key], outcomes[1][key], atol=tolerance)
