"""DOTE: direct optimisation of TE from historical demands (Perry et al., NSDI 23).

DOTE (baseline (6) of Section 5.1) trains a fully connected network to map
the most recent ``H`` demand matrices straight to a TE configuration, with
the expected MLU of the *next* matrix as the loss.  FIGRET generalises DOTE
by adding the fine-grained sensitivity term; setting
``robustness_weight = 0`` in the shared trainer therefore reproduces DOTE
exactly.
"""

from __future__ import annotations

from repro.core.trainer import TrainerBackedScheme

__all__ = ["Dote"]


class Dote(TrainerBackedScheme):
    """Deep-learning TE trained on MLU only (no robustness term).

    Arguments as :class:`~repro.core.trainer.TrainerBackedScheme`;
    ``robustness_weight`` is forced to zero (that is what makes it DOTE
    rather than FIGRET).
    """

    scheme_name = "DOTE"
    forced = {"robustness_weight": 0.0}
