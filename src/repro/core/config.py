"""Hyper-parameters shared by the deep-learning TE schemes."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrainingConfig"]


@dataclass
class TrainingConfig:
    """Hyper-parameters of the FIGRET / DOTE training loop.

    The defaults follow Appendix D.4: a fully connected network with five
    hidden layers of 128 ReLU units, a Sigmoid output layer, the Adam
    optimizer, and a history window of H = 12 demand matrices.

    Attributes:
        history_len: Number of past demand matrices fed to the network (H).
        hidden_sizes: Widths of the hidden layers.
        learning_rate: Adam learning rate.
        epochs: Number of passes over the training windows.
        batch_size: Mini-batch size.
        robustness_weight: Weight of the fine-grained sensitivity loss L2
            (0 recovers DOTE exactly).
        normalize_by_optimal: If True, the MLU loss of each sample is divided
            by the omniscient-optimal MLU of that sample (stabilises training
            across samples of very different volume, as in DOTE).
        gradient_clip: Maximum global gradient norm per update (None disables
            clipping).  The hard-max in the MLU loss produces occasional very
            large gradients; clipping keeps Adam stable at higher learning
            rates.
        lr_decay: Multiplicative learning-rate decay applied after each epoch.
        seed: Seed for weight initialisation and batch shuffling.
    """

    history_len: int = 12
    hidden_sizes: tuple[int, ...] = (128, 128, 128, 128, 128)
    learning_rate: float = 2e-3
    epochs: int = 30
    batch_size: int = 32
    robustness_weight: float = 0.1
    normalize_by_optimal: bool = True
    gradient_clip: float | None = 5.0
    lr_decay: float = 0.98
    seed: int = 0

    def __post_init__(self) -> None:
        if self.history_len < 1:
            raise ValueError("history_len must be at least 1")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.robustness_weight < 0:
            raise ValueError("robustness_weight must be non-negative")
        if self.gradient_clip is not None and self.gradient_clip <= 0:
            raise ValueError("gradient_clip must be positive or None")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")

    def replace(self, **overrides) -> "TrainingConfig":
        """Return a copy with some fields replaced."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **overrides)
