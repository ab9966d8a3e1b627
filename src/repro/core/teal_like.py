"""A TEAL-like baseline: learning-accelerated TE for a single given demand.

TEAL (baseline (7) of Section 5.1) learns to map a *given* traffic demand to
a network configuration tailored to that demand (GNN + reinforcement
learning).  In the paper's evaluation, since the future demand is unknown,
the configuration computed for the *previous* snapshot's demand is applied to
the next snapshot -- which is exactly why TEAL underperforms when bursts
occur.

A full GNN + RL reimplementation is out of scope for this reproduction (and,
as Appendix D.3 argues, unnecessary for the MLU objective); instead this
baseline captures TEAL's defining property -- "optimise for the demand you
were given, not for what might come next" -- with the same FCN substrate:

* input: the single most recent demand vector (H = 1);
* loss: the MLU that configuration achieves on **that same input demand**
  (not on the next one).

At test time the configuration computed from the previous snapshot is applied
to the next snapshot, mirroring the paper's methodology.
"""

from __future__ import annotations

from repro.core.trainer import Trainer, TrainerBackedScheme, TrainingHistory
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = ["TealLike"]


class TealLike(TrainerBackedScheme):
    """Learning-based TE that optimises for the observed (stale) demand.

    Arguments as :class:`~repro.core.trainer.TrainerBackedScheme`.  The
    forced fields are what TEAL-like has always trained with: one demand
    vector in, no robustness term, no clipping, a constant learning rate.
    """

    scheme_name = "TEAL-like"
    forced = {
        "history_len": 1,
        "robustness_weight": 0.0,
        "gradient_clip": None,
        "lr_decay": 1.0,
        "warmup_steps": 0,
    }

    def _fit(self, trainer: Trainer, train_sequence: TrafficMatrixSequence) -> TrainingHistory:
        # The defining difference from DOTE: the loss is evaluated on the
        # *input* demand itself.
        demands = train_sequence.flat_demands()
        return trainer.fit_arrays(demands, demands)
