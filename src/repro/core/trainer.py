"""Training loop for the deep-learning TE schemes.

The trainer turns a training :class:`TrafficMatrixSequence` into supervised
windows (``H`` past demand vectors -> the next demand vector), then performs
mini-batch Adam updates of a :class:`FigretNet` under a :class:`TELoss`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.loss import TELoss
from repro.core.model import FigretNet
from repro.nn import Adam, Tensor, clip_gradient_norm
from repro.paths.path_set import PathSet
from repro.solvers.lp import OptimalMLUCache, shared_cache
from repro.te.config import TEConfiguration
from repro.te.scheme import TEScheme
from repro.traffic.matrix import TrafficMatrixSequence
from repro.traffic.windows import build_history_windows

__all__ = [
    "Trainer",
    "TrainerBackedScheme",
    "TrainingHistory",
    "build_windows",
    "fit_history_window",
    "train_step",
]


@dataclass
class TrainingHistory:
    """Per-epoch training statistics.

    Attributes:
        epoch_losses: Mean total loss per epoch.
        epoch_mlu_losses: Mean MLU component per epoch.
        epoch_sensitivity_losses: Mean sensitivity component per epoch.
    """

    epoch_losses: list[float] = field(default_factory=list)
    epoch_mlu_losses: list[float] = field(default_factory=list)
    epoch_sensitivity_losses: list[float] = field(default_factory=list)

    def record(self, total: float, mlu: float, sensitivity: float) -> None:
        """Append one epoch's averages."""
        self.epoch_losses.append(total)
        self.epoch_mlu_losses.append(mlu)
        self.epoch_sensitivity_losses.append(sensitivity)


def build_windows(
    sequence: TrafficMatrixSequence, history_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Build (inputs, targets) training arrays from a traffic sequence.

    Delegates to the shared stride-tricks window builder (one sliding-window
    view over the flattened trace instead of a Python loop) -- the same
    builder the evaluation engine replays with.

    Returns:
        ``inputs`` of shape ``(N, H * num_sd_pairs)`` (flattened windows,
        oldest demand first) and ``targets`` of shape ``(N, num_sd_pairs)``.
    """
    if history_len < 1:
        raise ValueError("history must be at least 1")
    if len(sequence) <= history_len:
        raise ValueError(
            f"sequence of length {len(sequence)} is too short for history {history_len}"
        )
    windows, targets = build_history_windows(sequence.flat_demands(), history_len)
    inputs = windows.reshape(windows.shape[0], -1)
    return np.ascontiguousarray(inputs), np.ascontiguousarray(targets)


def fit_history_window(window: np.ndarray, history_len: int) -> np.ndarray:
    """Trim or left-pad demand windows to exactly ``history_len`` rows.

    Accepts a single ``(H, num_sd_pairs)`` window or a batch
    ``(T, H, num_sd_pairs)``; windows longer than ``history_len`` keep their
    most recent rows, shorter ones are left-padded by repeating the oldest
    row (so early test intervals still produce a full input).
    """
    window = np.asarray(window, dtype=float)
    length = window.shape[-2]
    if length > history_len:
        return window[..., -history_len:, :]
    if length < history_len:
        pad = np.repeat(
            window[..., :1, :], history_len - length, axis=window.ndim - 2
        )
        return np.concatenate([pad, window], axis=window.ndim - 2)
    return window


def train_step(
    model: FigretNet,
    loss_fn: TELoss,
    optimizer: Adam,
    inputs: np.ndarray,
    demands: np.ndarray,
    optimal_mlu: np.ndarray | None,
    *,
    gradient_clip: float | None,
    epoch: int,
    step: int,
) -> dict[str, float]:
    """One optimisation step on one mini-batch; returns the loss components.

    The only copy of the step every learning scheme takes: forward, loss,
    backward, optional global-norm clipping, optimiser update.  ``epoch`` and
    ``step`` (both counted from 1) only name the place in the error below.

    Raises:
        FloatingPointError: The loss is NaN or infinite.  Raised before the
            optimiser runs: clipping compares ``nan > max_norm`` (False) and
            Adam would then write NaN into every weight, which surfaces much
            later as NaN metrics in a stored record, with no error anywhere.
    """
    raw_scores = model(Tensor(inputs))
    loss, components = loss_fn(raw_scores, demands, optimal_mlu)
    if not math.isfinite(components["total"]):
        raise FloatingPointError(
            f"non-finite training loss ({components['total']}) at epoch {epoch}, "
            f"step {step} (learning rate {optimizer.lr:g}); no update was applied"
        )
    optimizer.zero_grad()
    loss.backward()
    if gradient_clip is not None:
        clip_gradient_norm(optimizer.parameters, gradient_clip)
    optimizer.step()
    return components


class Trainer:
    """Mini-batch Adam trainer for the FIGRET / DOTE / TEAL-like models.

    Args:
        path_set: Candidate paths.
        config: Training hyper-parameters.
        pair_variance: Per-pair demand variance of the training period (used
            by the sensitivity loss when ``config.robustness_weight > 0``).
        cache: Optimal-MLU cache serving the training-time normalisers (the
            process-wide :func:`~repro.solvers.lp.shared_cache` by default,
            so a later evaluation of the same demands is pure cache hits).
            Which solver and pool width a miss gets is the cache's to say.
    """

    def __init__(
        self,
        path_set: PathSet,
        config: TrainingConfig,
        pair_variance: np.ndarray | None = None,
        cache: OptimalMLUCache | None = None,
    ) -> None:
        self.path_set = path_set
        self.config = config
        self.pair_variance = pair_variance
        self.cache = cache
        self.model = FigretNet(
            path_set,
            history_len=config.history_len,
            hidden_sizes=config.hidden_sizes,
            seed=config.seed,
        )
        self.loss = TELoss(
            path_set,
            pair_variance=pair_variance,
            robustness_weight=config.robustness_weight,
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.learning_rate)
        self.history = TrainingHistory()
        self.input_scale: float = 1.0

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, train_sequence: TrafficMatrixSequence) -> TrainingHistory:
        """Train on a traffic sequence: :meth:`fit_arrays` over its windows."""
        return self.fit_arrays(*build_windows(train_sequence, self.config.history_len))

    def fit_arrays(self, inputs: np.ndarray, targets: np.ndarray) -> TrainingHistory:
        """Train the model to route ``targets[i]`` given ``inputs[i]``.

        The one training loop.  ``inputs`` is ``(N, H * num_sd_pairs)`` and
        ``targets`` ``(N, num_sd_pairs)``: the demand each configuration is
        scored on, and the one the normalisers are solved for.

        Every fit is a fresh optimisation from the current weights: the
        Adam moments, the step count and the gradients are released on the
        way out (also when a step raises), so a fitted trainer holds its
        weights and nothing the size of them besides.
        """
        config = self.config
        # Scale inputs so the network sees O(1) values regardless of the
        # traffic volume units.
        self.input_scale = float(max(inputs.mean(), 1e-12))
        scaled_inputs = inputs / self.input_scale

        optimal = None
        if config.normalize_by_optimal:
            # Normalisers come from the shared LP cache in one batched call:
            # values are bit-identical to per-target ``omniscient_mlu`` calls
            # (same solver, same ``NORMALIZER_FLOOR``), and the entries stay
            # cached for the evaluation replay of the same demands.
            cache = self.cache if self.cache is not None else shared_cache()
            optimal = cache.optimal_mlus(self.path_set, targets)

        rng = np.random.default_rng(config.seed)
        num_samples = scaled_inputs.shape[0]
        learning_rate = config.learning_rate
        try:
            for epoch in range(1, config.epochs + 1):
                self.optimizer.lr = learning_rate
                order = rng.permutation(num_samples)
                epoch_total, epoch_mlu, epoch_sens, batches = 0.0, 0.0, 0.0, 0
                for start in range(0, num_samples, config.batch_size):
                    batch_idx = order[start : start + config.batch_size]
                    components = train_step(
                        self.model,
                        self.loss,
                        self.optimizer,
                        scaled_inputs[batch_idx],
                        targets[batch_idx],
                        optimal[batch_idx] if optimal is not None else None,
                        gradient_clip=config.gradient_clip,
                        epoch=epoch,
                        step=batches + 1,
                    )
                    epoch_total += components["total"]
                    epoch_mlu += components["mlu"]
                    epoch_sens += components["sensitivity"]
                    batches += 1
                self.history.record(
                    epoch_total / batches, epoch_mlu / batches, epoch_sens / batches
                )
                learning_rate *= config.lr_decay
        finally:
            self.optimizer.release()
        return self.history


class TrainerBackedScheme(TEScheme):
    """A learned scheme: a :class:`Trainer` fits it, its network configures.

    FIGRET, DOTE and the TEAL-like baseline are this class with three things
    named: ``scheme_name``, the config fields the scheme ``forced`` (so that
    ``config`` states what it trains with), and -- by overriding
    :meth:`_fit` -- what it fits on.  Construction, window fitting and the
    single/batched forward passes live here so they cannot drift apart.

    ``precompute`` keeps the fitted :class:`FigretNet` (``model``), its
    ``input_scale`` and the ``training_history``; the trainer, with its
    optimiser and its loss (which holds a dense copy of the path-to-edge
    matrix), goes when ``precompute`` returns.  A trained scheme's size is its
    weights.

    Args:
        path_set: Candidate paths.
        config: Training hyper-parameters (``forced`` fields are overwritten).
        cache: Optimal-MLU cache for the training normalisers (the process-
            wide shared cache by default).
    """

    scheme_name: str
    forced: dict = {}

    def __init__(
        self,
        path_set: PathSet,
        config: TrainingConfig | None = None,
        cache: OptimalMLUCache | None = None,
    ) -> None:
        super().__init__(path_set, name=self.scheme_name)
        self.config = (config or TrainingConfig()).replace(**self.forced)
        self.cache = cache
        self.training_history: TrainingHistory | None = None
        # Weights of the sensitivity loss; only FIGRET measures them.
        self.pair_variance: np.ndarray | None = None
        self.model: FigretNet | None = None
        self.input_scale = 1.0

    def precompute(self, train_sequence: TrafficMatrixSequence) -> None:
        """Train a fresh network on the training portion of the trace.

        A training that raises leaves the scheme as it was.
        """
        trainer = Trainer(
            self.path_set,
            self.config,
            pair_variance=self.pair_variance,
            cache=self.cache,
        )
        self.training_history = self._fit(trainer, train_sequence)
        self.model, self.input_scale = trainer.model, trainer.input_scale

    def _fit(self, trainer: Trainer, train_sequence: TrafficMatrixSequence) -> TrainingHistory:
        return trainer.fit(train_sequence)

    @property
    def history_len(self) -> int:
        """Length of the demand history window the scheme expects."""
        return self.config.history_len

    def _require_model(self) -> FigretNet:
        if self.model is None:
            raise RuntimeError(
                f"{type(self).__name__}.configure called before precompute()"
            )
        return self.model

    def configure(self, history: np.ndarray) -> TEConfiguration:
        model = self._require_model()
        window = fit_history_window(history, self.config.history_len)
        return TEConfiguration(
            self.path_set,
            model.split_ratios(window, input_scale=self.input_scale),
            normalize=True,
        )

    def configure_batch(self, windows: np.ndarray) -> np.ndarray:
        """All test windows in one vectorized forward pass (``(T, num_paths)``)."""
        model = self._require_model()
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 3:
            return super().configure_batch(windows)
        return model.split_ratios_batch(
            fit_history_window(windows, self.config.history_len),
            input_scale=self.input_scale,
        )
