"""Unit tests for the FIGRET loss, network architecture, and trainer plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.loss import TELoss
from repro.core.model import FigretNet
from repro.core.trainer import Trainer, build_windows
from repro.nn import Tensor
from repro.te.config import TEConfiguration
from repro.te.mlu import max_link_utilization
from repro.te.sensitivity import max_sensitivity_per_pair


class TestTrainingConfig:
    def test_defaults_match_appendix_d(self):
        config = TrainingConfig()
        assert config.hidden_sizes == (128, 128, 128, 128, 128)
        assert config.history_len == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(history_len=0)
        with pytest.raises(ValueError):
            TrainingConfig(hidden_sizes=())
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(robustness_weight=-1)
        with pytest.raises(ValueError):
            TrainingConfig(gradient_clip=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(lr_decay=0.0)

    def test_replace(self):
        config = TrainingConfig(epochs=5)
        changed = config.replace(robustness_weight=0.0, epochs=7)
        assert changed.epochs == 7
        assert changed.robustness_weight == 0.0
        assert config.epochs == 5  # original untouched


class TestTELoss:
    def test_split_ratios_sum_to_one(self, mesh4_paths, rng):
        loss = TELoss(mesh4_paths)
        raw = Tensor(rng.random((3, mesh4_paths.num_paths)) + 0.1)
        ratios = loss.split_ratios(raw).numpy()
        sums = (mesh4_paths.sd_to_path @ ratios.T).T
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_mlu_matches_te_module(self, mesh4_paths, rng):
        loss = TELoss(mesh4_paths)
        config = TEConfiguration.uniform(mesh4_paths)
        demand = rng.random((2, mesh4_paths.num_sd_pairs))
        tensor_mlu = loss.mlu(Tensor(config.split_ratios[None, :].repeat(2, axis=0)), demand).numpy()
        expected = max_link_utilization(mesh4_paths, config, demand)
        np.testing.assert_allclose(tensor_mlu, expected)

    def test_sensitivity_term_matches_te_module(self, mesh4_paths, rng):
        variance = rng.random(mesh4_paths.num_sd_pairs)
        loss = TELoss(mesh4_paths, pair_variance=variance, robustness_weight=1.0)
        config = TEConfiguration.uniform(mesh4_paths)
        term = loss.sensitivity_term(Tensor(config.split_ratios[None, :])).numpy()[0]
        smax = max_sensitivity_per_pair(mesh4_paths, config, normalized=True)
        weights = variance / variance.sum()
        assert term == pytest.approx(float(weights @ smax))

    def test_total_loss_components(self, mesh4_paths, rng):
        variance = rng.random(mesh4_paths.num_sd_pairs)
        loss = TELoss(mesh4_paths, pair_variance=variance, robustness_weight=0.5)
        raw = Tensor(rng.random((2, mesh4_paths.num_paths)) + 0.1, requires_grad=True)
        demands = rng.random((2, mesh4_paths.num_sd_pairs))
        total, components = loss(raw, demands)
        assert components["total"] == pytest.approx(
            components["mlu"] + 0.5 * components["sensitivity"]
        )
        total.backward()
        assert raw.grad is not None

    def test_optimal_normalisation(self, mesh4_paths, rng):
        loss = TELoss(mesh4_paths)
        raw = Tensor(rng.random((2, mesh4_paths.num_paths)) + 0.1)
        demands = rng.random((2, mesh4_paths.num_sd_pairs))
        _, plain = loss(raw, demands)
        _, normalized = loss(raw, demands, optimal_mlu=np.full(2, 2.0))
        assert normalized["mlu"] == pytest.approx(plain["mlu"] / 2.0)

    def test_robustness_disabled_without_variance(self, mesh4_paths, rng):
        loss = TELoss(mesh4_paths, pair_variance=None, robustness_weight=1.0)
        raw = Tensor(rng.random((1, mesh4_paths.num_paths)) + 0.1)
        _, components = loss(raw, rng.random((1, mesh4_paths.num_sd_pairs)))
        assert components["sensitivity"] == 0.0
        with pytest.raises(RuntimeError):
            loss.sensitivity_term(raw)

    def test_variance_shape_validation(self, mesh4_paths):
        with pytest.raises(ValueError):
            TELoss(mesh4_paths, pair_variance=np.ones(3))

    def test_higher_sensitivity_increases_loss(self, mesh4_paths, rng):
        variance = np.ones(mesh4_paths.num_sd_pairs)
        loss = TELoss(mesh4_paths, pair_variance=variance, robustness_weight=1.0)
        concentrated = TEConfiguration.shortest_path(mesh4_paths).split_ratios[None, :]
        hedged = TEConfiguration.uniform(mesh4_paths).split_ratios[None, :]
        assert (
            loss.sensitivity_term(Tensor(concentrated)).item()
            > loss.sensitivity_term(Tensor(hedged)).item()
        )


class TestFigretNet:
    def test_output_shape_and_range(self, mesh4_paths, rng):
        net = FigretNet(mesh4_paths, history_len=4, hidden_sizes=(16, 16), seed=0)
        x = Tensor(rng.random((3, net.input_dim)))
        out = net(x)
        assert out.shape == (3, mesh4_paths.num_paths)
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_split_ratios_helper(self, mesh4_paths, rng):
        net = FigretNet(mesh4_paths, history_len=4, hidden_sizes=(16,), seed=0)
        window = rng.random((4, mesh4_paths.num_sd_pairs))
        ratios = net.split_ratios(window)
        sums = mesh4_paths.sd_to_path @ ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_split_ratios_wrong_size(self, mesh4_paths, rng):
        net = FigretNet(mesh4_paths, history_len=4, hidden_sizes=(16,), seed=0)
        with pytest.raises(ValueError):
            net.split_ratios(rng.random((3, mesh4_paths.num_sd_pairs)))

    def test_deterministic_initialisation(self, mesh4_paths):
        a = FigretNet(mesh4_paths, history_len=2, hidden_sizes=(8,), seed=5)
        b = FigretNet(mesh4_paths, history_len=2, hidden_sizes=(8,), seed=5)
        np.testing.assert_allclose(a.parameters()[0].data, b.parameters()[0].data)

    def test_architecture_depth(self, mesh4_paths):
        net = FigretNet(mesh4_paths, history_len=2, hidden_sizes=(128,) * 5, seed=0)
        # Five hidden Linear layers + the output Linear layer = 12 parameter tensors.
        assert len(net.parameters()) == 12


class TestTrainer:
    def test_build_windows_shapes(self, mesh4_traffic):
        inputs, targets = build_windows(mesh4_traffic, history_len=6)
        assert inputs.shape == (len(mesh4_traffic) - 6, 6 * 12)
        assert targets.shape == (len(mesh4_traffic) - 6, 12)

    def test_build_windows_too_short(self, mesh4_traffic):
        with pytest.raises(ValueError):
            build_windows(mesh4_traffic[:3], history_len=10)

    def test_training_reduces_loss(self, mesh4_paths, mesh4_traffic):
        config = TrainingConfig(
            epochs=6, history_len=4, hidden_sizes=(32, 32), normalize_by_optimal=False,
            robustness_weight=0.0, seed=0,
        )
        trainer = Trainer(mesh4_paths, config)
        history = trainer.fit(mesh4_traffic)
        assert len(history.epoch_losses) == 6
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_inference_after_training(self, mesh4_paths, mesh4_traffic):
        config = TrainingConfig(epochs=2, history_len=4, hidden_sizes=(16,), seed=0,
                                normalize_by_optimal=False)
        trainer = Trainer(mesh4_paths, config)
        trainer.fit(mesh4_traffic)
        window = mesh4_traffic.flat_demands()[:4]
        ratios = trainer.model.split_ratios(window, input_scale=trainer.input_scale)
        sums = mesh4_paths.sd_to_path @ ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_a_refit_is_a_fresh_optimisation_from_the_current_weights(
        self, mesh4_paths, mesh4_traffic
    ):
        # The refit used to continue the first fit's moments and step count.
        config = TrainingConfig(epochs=2, history_len=3, hidden_sizes=(16,), seed=0,
                                normalize_by_optimal=False)
        original = Trainer(mesh4_paths, config)
        original.fit(mesh4_traffic)
        restarted = Trainer(mesh4_paths, config)
        for param, fitted in zip(restarted.model.parameters(), original.model.parameters()):
            param.data = fitted.data.copy()
        original.fit(mesh4_traffic)
        restarted.fit(mesh4_traffic)
        assert [p.data.tobytes() for p in original.model.parameters()] == [
            p.data.tobytes() for p in restarted.model.parameters()
        ]
        assert original.history.epoch_losses[2:] == restarted.history.epoch_losses

    def test_robustness_weight_recorded_in_history(self, mesh4_paths, mesh4_traffic):
        variance = mesh4_traffic.pair_variance()
        config = TrainingConfig(epochs=2, history_len=4, hidden_sizes=(16,), seed=0,
                                robustness_weight=0.5, normalize_by_optimal=False)
        trainer = Trainer(mesh4_paths, config, pair_variance=variance)
        history = trainer.fit(mesh4_traffic)
        assert all(s > 0 for s in history.epoch_sensitivity_losses)
