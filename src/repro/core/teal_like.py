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
to the next snapshot, mirroring the paper's methodology.  See DESIGN.md
section 1 for the substitution note.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.loss import TELoss
from repro.core.model import FigretNet
from repro.core.trainer import train_step
from repro.nn import Adam
from repro.paths.path_set import PathSet
from repro.solvers.lp import OptimalMLUCache, shared_cache
from repro.te.config import TEConfiguration
from repro.te.scheme import TEScheme
from repro.traffic.matrix import TrafficMatrixSequence

__all__ = ["TealLike"]


class TealLike(TEScheme):
    """Learning-based TE that optimises for the observed (stale) demand.

    Args:
        path_set: Candidate paths.
        config: Training hyper-parameters (``history_len`` is forced to 1 and
            the robustness term is disabled).
        cache: Optimal-MLU cache serving the training-time normalisers (the
            process-wide :func:`~repro.solvers.lp.shared_cache` by default).
        lp_workers: Optional process-pool width for the normaliser solves.
    """

    def __init__(
        self,
        path_set: PathSet,
        config: TrainingConfig | None = None,
        cache: OptimalMLUCache | None = None,
        lp_workers: int | str | None = None,
    ) -> None:
        super().__init__(path_set, name="TEAL-like")
        base = config or TrainingConfig()
        self.config = base.replace(history_len=1, robustness_weight=0.0)
        self.cache = cache
        self.lp_workers = lp_workers
        self._model: FigretNet | None = None
        self._loss: TELoss | None = None
        self._input_scale = 1.0

    def __getstate__(self) -> dict:
        """Pickle trained weights + config, dropping the live LP cache.

        The model serialises through :class:`FigretNet`'s weights-only
        pickling and the loss holds plain arrays, so a trained TEAL-like
        scheme crosses a process-pool boundary ready for inference.
        """
        state = dict(self.__dict__)
        state["cache"] = None
        return state

    def precompute(self, train_sequence: TrafficMatrixSequence) -> None:
        """Train the network to minimise MLU on the demand it is shown."""
        config = self.config
        demands = train_sequence.flat_demands()
        self._input_scale = float(max(demands.mean(), 1e-12))
        scaled = demands / self._input_scale
        optimal = None
        if config.normalize_by_optimal:
            cache = self.cache if self.cache is not None else shared_cache()
            optimal = cache.optimal_mlus(
                self.path_set, demands, workers=self.lp_workers
            )

        self._model = FigretNet(
            self.path_set,
            history_len=1,
            hidden_sizes=config.hidden_sizes,
            seed=config.seed,
        )
        self._loss = TELoss(self.path_set, pair_variance=None, robustness_weight=0.0)
        optimizer = Adam(self._model.parameters(), lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        num_samples = scaled.shape[0]
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(num_samples)
            for step, start in enumerate(range(0, num_samples, config.batch_size), 1):
                idx = order[start : start + config.batch_size]
                # The defining difference from DOTE: the loss is evaluated on
                # the *input* demand itself.  No clipping and a constant
                # learning rate, as TEAL-like has always trained.
                train_step(
                    self._model,
                    self._loss,
                    optimizer,
                    scaled[idx],
                    demands[idx],
                    optimal[idx] if optimal is not None else None,
                    gradient_clip=None,
                    epoch=epoch,
                    step=step,
                )
        optimizer.zero_grad()  # the moments go with the optimiser; these would stay

    def configure(self, history: np.ndarray) -> TEConfiguration:
        if self._model is None:
            raise RuntimeError("TealLike.configure called before precompute()")
        latest = np.asarray(history, dtype=float)[-1]
        ratios = self._model.split_ratios(latest, input_scale=self._input_scale)
        return TEConfiguration(self.path_set, ratios, normalize=True)

    def configure_batch(self, windows: np.ndarray) -> np.ndarray:
        """One vectorized pass over the most recent demand of every window."""
        if self._model is None:
            raise RuntimeError("TealLike.configure_batch called before precompute()")
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 3:
            return super().configure_batch(windows)
        latest = windows[:, -1, :]
        return self._model.split_ratios_batch(latest, input_scale=self._input_scale)
