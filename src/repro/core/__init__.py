"""FIGRET's core: the deep-learning TE schemes (FIGRET, DOTE, TEAL-like)."""

from repro.core.config import TrainingConfig
from repro.core.model import FigretNet
from repro.core.loss import TELoss
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.figret import Figret
from repro.core.dote import Dote
from repro.core.teal_like import TealLike

__all__ = [
    "TrainingConfig",
    "FigretNet",
    "TELoss",
    "Trainer",
    "TrainingHistory",
    "Figret",
    "Dote",
    "TealLike",
]
