"""Unit tests for the FIGRET, DOTE and TEAL-like schemes."""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.core import Dote, Figret, TealLike, TrainingConfig
from repro.core.loss import TELoss
from repro.core.model import FigretNet
from repro.core.trainer import Trainer
from repro.nn import Adam, Tensor, clip_gradient_norm
from repro.te.sensitivity import max_sensitivity_per_pair

FAST = TrainingConfig(
    epochs=4,
    history_len=4,
    hidden_sizes=(32, 32),
    normalize_by_optimal=False,
    robustness_weight=0.2,
    seed=0,
)


class TestFigret:
    def test_configure_before_precompute_raises(self, mesh4_paths):
        with pytest.raises(RuntimeError):
            Figret(mesh4_paths, FAST).configure(np.ones((4, 12)))

    def test_valid_configuration_after_training(self, mesh4_paths, mesh4_traffic):
        scheme = Figret(mesh4_paths, FAST)
        scheme.precompute(mesh4_traffic)
        history = mesh4_traffic.flat_demands()[-4:]
        config = scheme.configure(history)
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_short_history_is_padded(self, mesh4_paths, mesh4_traffic):
        scheme = Figret(mesh4_paths, FAST)
        scheme.precompute(mesh4_traffic)
        config = scheme.configure(mesh4_traffic.flat_demands()[:2])
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_pair_variance_recorded(self, mesh4_paths, mesh4_traffic):
        scheme = Figret(mesh4_paths, FAST)
        scheme.precompute(mesh4_traffic)
        np.testing.assert_allclose(scheme.pair_variance, mesh4_traffic.pair_variance())

    def test_training_history_exposed(self, mesh4_paths, mesh4_traffic):
        scheme = Figret(mesh4_paths, FAST)
        scheme.precompute(mesh4_traffic)
        assert len(scheme.training_history.epoch_losses) == FAST.epochs


class TestDote:
    def test_robustness_weight_forced_to_zero(self, mesh4_paths):
        scheme = Dote(mesh4_paths, FAST)
        assert scheme.config.robustness_weight == 0.0
        assert scheme.config.history_len == FAST.history_len

    def test_trains_and_configures(self, mesh4_paths, mesh4_traffic):
        scheme = Dote(mesh4_paths, FAST)
        scheme.precompute(mesh4_traffic)
        config = scheme.configure(mesh4_traffic.flat_demands()[-4:])
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_configure_before_precompute_raises(self, mesh4_paths):
        with pytest.raises(RuntimeError):
            Dote(mesh4_paths, FAST).configure(np.ones((4, 12)))


class TestTealLike:
    def test_history_len_is_one(self, mesh4_paths):
        scheme = TealLike(mesh4_paths, FAST)
        assert scheme.config.history_len == 1

    def test_trains_and_configures(self, mesh4_paths, mesh4_traffic):
        scheme = TealLike(mesh4_paths, FAST)
        scheme.precompute(mesh4_traffic)
        config = scheme.configure(mesh4_traffic.flat_demands()[-3:])
        sums = mesh4_paths.sd_to_path @ config.split_ratios
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_configure_before_precompute_raises(self, mesh4_paths):
        with pytest.raises(RuntimeError):
            TealLike(mesh4_paths, FAST).configure(np.ones((1, 12)))

    def test_config_states_what_it_trains_with(self, mesh4_paths, mesh4_traffic):
        # Clipping and decay from a spec were silently ignored while
        # ``config`` kept reporting them.
        asked = FAST.replace(lr_decay=0.9, gradient_clip=1.0)
        fitted = []
        for config in (asked, FAST):
            scheme = TealLike(mesh4_paths, config)
            assert scheme.config.lr_decay == 1.0
            assert scheme.config.gradient_clip is None
            scheme.precompute(mesh4_traffic)
            assert len(scheme.training_history.epoch_losses) == FAST.epochs
            fitted.append([param.data.tobytes() for param in scheme.model.parameters()])
        assert fitted[0] == fitted[1]


class TestFigretVersusDote:
    def test_figret_hedges_bursty_pairs_more_than_stable_ones(self, tor_scenario_small):
        """The qualitative behaviour behind Figure 8: sensitivity tracks variance."""
        _, paths, traffic = tor_scenario_small
        config = TrainingConfig(
            epochs=10, history_len=6, hidden_sizes=(64, 64), robustness_weight=0.5,
            normalize_by_optimal=False, seed=1,
        )
        scheme = Figret(paths, config)
        train, test = traffic.split(0.8)
        scheme.precompute(train)
        history = test.flat_demands()[:6]
        te_config = scheme.configure(history)
        sens = max_sensitivity_per_pair(paths, te_config, normalized=True)
        variance = train.pair_variance()
        bursty = variance >= np.percentile(variance, 80)
        stable = variance <= np.percentile(variance, 20)
        assert sens[bursty].mean() < sens[stable].mean()

    def test_figret_sensitivity_below_dote_on_bursty_pairs(self, tor_scenario_small):
        _, paths, traffic = tor_scenario_small
        config = TrainingConfig(
            epochs=10, history_len=6, hidden_sizes=(64, 64), robustness_weight=0.5,
            normalize_by_optimal=False, seed=1,
        )
        train, test = traffic.split(0.8)
        figret = Figret(paths, config)
        dote = Dote(paths, config)
        figret.precompute(train)
        dote.precompute(train)
        history = test.flat_demands()[:6]
        variance = train.pair_variance()
        bursty = variance >= np.percentile(variance, 80)
        fig_sens = max_sensitivity_per_pair(paths, figret.configure(history), normalized=True)
        dote_sens = max_sensitivity_per_pair(paths, dote.configure(history), normalized=True)
        assert fig_sens[bursty].mean() <= dote_sens[bursty].mean() + 0.05


class TestFittedFootprint:
    """A fitted scheme holds its network, not the optimisation that made it.

    Deterministic gate (``tracemalloc``, as for the training step): memory
    still allocated after ``precompute``, net of what was allocated before.
    Two 768-wide hidden layers on the 4-node mesh (12 pairs, 36 paths) make
    the weights 4.8-4.9 MiB, of which the 768 x 768 layer is 4.5.  Measured
    held - weights: 6 KB for DOTE and TEAL-like, 12 KB for FIGRET (its
    per-pair variance); keeping the trainer, with Adam's two 128 KB scratch
    blocks and the loss, was 270 KB.  The process-wide clipping block
    (128 KB, allocated by the first clipped step of the process) is made
    before the measurement: it is not the scheme's.
    """

    CONFIG = TrainingConfig(
        epochs=1, history_len=3, hidden_sizes=(768, 768), normalize_by_optimal=False, seed=0
    )
    SLACK = 64 * 1024

    @staticmethod
    def _held_bytes(action):
        """What ``action`` returns, and the traced memory it leaves allocated."""
        clip_gradient_norm([Tensor(np.ones(1), requires_grad=True)], 1.0)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = action()
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, after - before

    @staticmethod
    def _reachable(root):
        """Objects reachable from ``root`` through instances and containers."""
        skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        seen, stack, found = set(), [root], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            seen.add(id(obj))
            found.append(obj)
            stack.extend(gc.get_referents(obj))
        return found

    @pytest.mark.parametrize("scheme_class", [Figret, Dote, TealLike])
    def test_a_fitted_scheme_holds_no_trainer_optimiser_or_loss(
        self, scheme_class, mesh4_paths, mesh4_traffic
    ):
        scheme = scheme_class(mesh4_paths, FAST.replace(epochs=1))
        scheme.precompute(mesh4_traffic)
        reachable = self._reachable(scheme)
        assert any(isinstance(obj, FigretNet) for obj in reachable)
        assert not [obj for obj in reachable if isinstance(obj, (Trainer, Adam, TELoss))]

    @pytest.mark.parametrize("scheme_class", [Figret, Dote, TealLike])
    def test_a_fitted_scheme_holds_its_weights_and_no_gradients(
        self, scheme_class, mesh4_paths, mesh4_traffic
    ):
        scheme = scheme_class(mesh4_paths, self.CONFIG)
        _, held = self._held_bytes(lambda: scheme.precompute(mesh4_traffic))
        weights = sum(param.data.nbytes for param in scheme.model.parameters())
        assert weights >= 4.5 * 2**20
        assert all(param.grad is None for param in scheme.model.parameters())
        assert held <= weights + self.SLACK

    def test_a_training_that_raises_leaves_the_scheme_untrained(
        self, mesh4_paths, mesh4_traffic
    ):
        for scheme_class in (Figret, TealLike):
            scheme = scheme_class(mesh4_paths, self.CONFIG.replace(learning_rate=1e300))

            def fail():
                with np.errstate(all="ignore"), pytest.raises(
                    FloatingPointError, match="step 2"
                ):
                    scheme.precompute(mesh4_traffic)

            _, held = self._held_bytes(fail)
            assert scheme.model is None and scheme.training_history is None
            assert held <= self.SLACK
            with pytest.raises(RuntimeError, match="before precompute"):
                scheme.configure(mesh4_traffic.flat_demands()[:3])
