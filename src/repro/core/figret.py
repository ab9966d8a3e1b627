"""FIGRET: fine-grained robustness-enhanced traffic engineering (the paper's scheme).

FIGRET trains the same fully connected architecture as DOTE but on the
burst-aware loss of Section 4.3:

    L = MLU(R_t, D_t) + robustness_weight * sum_{s,d} sigma^2_{sd} * S^max_{sd}

The per-pair variance ``sigma^2_{sd}`` is measured on the training period, so
pairs with historically bursty traffic are pushed towards low-sensitivity
(hedged) path allocations while stable pairs are left free to use their best
path -- the fine-grained behaviour visualised in Figure 8.
"""

from __future__ import annotations

from repro.core.trainer import TrainerBackedScheme
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = ["Figret"]


class Figret(TrainerBackedScheme):
    """The FIGRET TE scheme.

    Arguments as :class:`~repro.core.trainer.TrainerBackedScheme`;
    ``config.robustness_weight`` controls the strength of the fine-grained
    robustness term (the paper's L2).

    Example:
        >>> scheme = Figret(path_set, TrainingConfig(epochs=10))
        >>> scheme.precompute(train_sequence)
        >>> config = scheme.configure(recent_history)
    """

    scheme_name = "FIGRET"

    def precompute(self, train_sequence: TrafficMatrixSequence) -> None:
        """Measure per-pair variance and train the network."""
        self.pair_variance = train_sequence.pair_variance()
        super().precompute(train_sequence)
