"""Backend subsystem tests: selection, dtype plumbing, and equivalence.

Three layers:

* **Selection** -- the ``REPRO_BACKEND`` environment variable / explicit
  arguments / :func:`use_backend` overrides and the unknown-name error.
* **Ops** -- the six forward ops of every registered backend pinned
  against numpy reference results.
* **Equivalence** -- the forward (``split_ratios_batch``) and full engine
  replays of a neural scheme, parameterized over every registered
  backend with that backend's declared tolerance; the host-side kernels
  (``max_link_utilization``, ``reroute_ratios_around_failures``) and the LP
  schemes' replays pinned *bit-identically* (``assert_array_equal``) to numpy
  under every backend, because nothing but the forward runs on one.

The suites run under any ``REPRO_BACKEND`` value (the CI backend matrix
exports one); every test pins the backends it compares explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    available_backends,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.core import Dote, TrainingConfig
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import DesensitizationTE, PredictionBasedTE
from repro.te.config import TEConfiguration
from repro.te.failures import reroute_ratios_around_failures
from repro.te.mlu import max_link_utilization
from repro.traffic.windows import build_history_windows

HISTORY = 4


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

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "python")
        assert backend_mod.active_backend().name == "python"
        # Explicit names beat the environment.
        assert get_backend("numpy32").name == "numpy32"

    @pytest.mark.parametrize("name", ["no-such-backend", "torch"])
    def test_unknown_name_raises_from_env(self, monkeypatch, name):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, name)
        with pytest.raises(ValueError, match=f"unknown array backend '{name}'"):
            backend_mod.active_backend()

    @pytest.mark.parametrize("name", ["tensorflow", "auto"])
    def test_unknown_name_raises_with_known_choices(self, name):
        with pytest.raises(ValueError) as excinfo:
            get_backend(name)
        assert str(excinfo.value).endswith("known backends: numpy, numpy32, python")

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


class TestDtypeRoundTrip:
    @pytest.mark.parametrize("name", [n for n in available_backends() if n != "python"])
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

    @pytest.mark.parametrize("name", available_backends())
    def test_compute_dtype_is_honoured(self, name):
        backend = get_backend(name)
        converted = backend.to_numpy(
            backend.asarray(np.ones(3), dtype=backend.compute_dtype)
        )
        assert converted.dtype == np.dtype(backend.compute_dtype)


class TestGenericOps:
    """Every backend's forward ops pinned against numpy references."""

    @pytest.mark.parametrize("name", available_backends())
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

    @pytest.mark.parametrize("name", available_backends())
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


class TestHotPathEquivalence:
    """The forward within each backend's tolerance; the host kernels exact.

    MLU and failure rerouting take no backend: they run on the host's sparse
    products, so an active backend must not move a bit of their output.
    """

    @staticmethod
    def _tolerance(name: str) -> float:
        return max(get_backend(name).tolerance, 1e-12)

    @pytest.mark.parametrize("name", available_backends())
    def test_split_ratios_batch(self, name, trained_dote, mesh4_traffic):
        flat = mesh4_traffic[:16].flat_demands()
        windows, _ = build_history_windows(flat, HISTORY)
        with use_backend("numpy"):
            reference = trained_dote.configure_batch(windows)
        with use_backend(name):
            ratios = trained_dote.configure_batch(windows)
        np.testing.assert_allclose(ratios, reference, atol=self._tolerance(name))
        # The scores come back to the host as float64 whatever the forward
        # computed in, and rows remain valid per-pair distributions.
        assert ratios.dtype == np.float64
        pair_sums = (trained_dote.path_set.sd_to_path @ np.asarray(ratios).T).T
        np.testing.assert_allclose(pair_sums, 1.0, atol=1e-12)

    @pytest.mark.parametrize("name", available_backends())
    def test_max_link_utilization_batch_and_single(
        self, name, trained_dote, mesh4_paths, mesh4_traffic
    ):
        flat = mesh4_traffic[:14].flat_demands()
        windows, targets = build_history_windows(flat, HISTORY)
        ratios = trained_dote.configure_batch(windows)
        with use_backend("numpy"):
            reference = max_link_utilization(mesh4_paths, ratios, targets)
        # Single demand vector: a scalar, also through a TEConfiguration.
        config = TEConfiguration(mesh4_paths, ratios[0], normalize=True)
        with use_backend(name):
            computed = max_link_utilization(mesh4_paths, ratios, targets)
            single = max_link_utilization(mesh4_paths, config, targets[0])
        np.testing.assert_array_equal(computed, reference)
        assert isinstance(single, float)
        assert single == pytest.approx(reference[0], abs=1e-12)

    @pytest.mark.parametrize("name", available_backends())
    def test_max_link_utilization_rejects_bad_demand(self, name, mesh4_paths):
        ratios = np.full(mesh4_paths.num_paths, 0.5)
        with use_backend(name), pytest.raises(ValueError, match="entries"):
            max_link_utilization(mesh4_paths, ratios, np.ones(3))

    @pytest.mark.parametrize("name", available_backends())
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
        with use_backend("numpy"):
            reference = reroute_ratios_around_failures(mesh4_paths, ratios, mask)
        with use_backend(name):
            rerouted = reroute_ratios_around_failures(mesh4_paths, ratios, mask)
            # Single-row input keeps its shape.
            single = reroute_ratios_around_failures(mesh4_paths, ratios[0], mask)
            # An all-working mask is an exact pass-through.
            untouched = reroute_ratios_around_failures(
                mesh4_paths, ratios, np.ones_like(mask)
            )
        np.testing.assert_array_equal(rerouted, reference)
        np.testing.assert_array_equal(single, reference[0])
        np.testing.assert_array_equal(untouched, ratios)
        partitioned = list(mesh4_paths.path_indices_for(0, 1))
        np.testing.assert_array_equal(rerouted[:, partitioned], 1.0 / len(partitioned))
        assert not rerouted[:, mesh4_paths.path_indices_for(0, 2)[0]].any()

    @pytest.mark.parametrize("name", available_backends())
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
        with use_backend(name):
            rerouted = reroute_ratios_around_failures(mesh4_paths, ratios, mask)
        survivors = [i for i in indices if mask[i]]
        np.testing.assert_array_equal(rerouted[survivors], 1.0 / len(survivors))
        assert rerouted[indices[0]] == 0.0


class TestEngineBackendEquivalence:
    """Full replays across backends, and numpy bit-identicality."""

    @pytest.mark.parametrize("name", available_backends())
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

    @pytest.mark.parametrize("name", available_backends())
    def test_failure_experiment_across_backends(self, name, mesh4_paths, mesh4_traffic):
        test = mesh4_traffic[:10]
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
        # An LP scheme never runs a forward: identical, not merely close.
        for key in outcomes[0]:
            np.testing.assert_array_equal(outcomes[0][key], outcomes[1][key])

    @pytest.mark.parametrize("name", available_backends())
    def test_lp_scheme_replay_is_identical_on_every_backend(
        self, name, mesh4_paths, mesh4_traffic
    ):
        """Only the forward runs on a backend, so an LP scheme's batched and
        streamed replays equal the numpy engine's bit for bit."""
        train, test = mesh4_traffic[:30], mesh4_traffic[30:48]
        scheme = DesensitizationTE(mesh4_paths)
        scheme.precompute(train)
        reference_engine = EvaluationEngine(backend="numpy")
        engine = EvaluationEngine(cache=reference_engine.cache, backend=name)
        for replay in (
            lambda e: e.evaluate_scheme(scheme, test, HISTORY),
            lambda e: e.evaluate_streaming(scheme, test, HISTORY, chunk_size=5),
        ):
            reference, result = replay(reference_engine), replay(engine)
            np.testing.assert_array_equal(result.raw_mlus, reference.raw_mlus)
            np.testing.assert_array_equal(
                result.normalized_mlus, reference.normalized_mlus
            )
