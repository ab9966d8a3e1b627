"""Regression tests for the cache-batched training-time normalisers.

``Trainer.fit`` and ``TealLike.precompute`` used to solve one omniscient LP
per training target in a Python loop; both now draw the normalisers from an
:class:`OptimalMLUCache` in one batched call.  The batching must be invisible
to training -- losses bit-identical to the per-target path -- and the entries
it leaves behind must be *hits* (not re-solves) for any later evaluation of
the same demands.  Every cache here runs at both widths of the
``lp_workers`` fixture: a 2-wide LP pool must train bit for bit like the
sequential path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Dote, Figret, TealLike, TrainingConfig
from repro.core.trainer import Trainer, build_windows
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import OptimalMLUCache, count_lp_solves, omniscient_mlu

HISTORY = 3


@pytest.fixture(scope="module")
def tiny_config():
    return TrainingConfig(
        epochs=2,
        history_len=HISTORY,
        hidden_sizes=(8, 8),
        normalize_by_optimal=True,
        seed=11,
    )


@pytest.fixture(scope="module")
def train_sequence(mesh4_traffic):
    train, _ = mesh4_traffic[:40].split(0.75)
    return train


class TestTrainerNormalisers:
    def test_cached_normalisers_bitwise_equal_seed_loop(
        self, mesh4_paths, train_sequence, tiny_config, lp_workers
    ):
        """The cache serves exactly what per-target omniscient_mlu returned."""
        _, targets = build_windows(train_sequence, HISTORY)
        reference = np.array(
            [omniscient_mlu(mesh4_paths, target) for target in targets]
        )
        cache = OptimalMLUCache(workers=lp_workers)
        batched = cache.optimal_mlus(mesh4_paths, targets)
        np.testing.assert_array_equal(batched, reference)  # bitwise

    def test_fit_losses_bit_identical_across_cache_states(
        self, mesh4_paths, train_sequence, tiny_config, lp_workers
    ):
        """Cold cache, warm cache, and isolated caches all train identically."""
        histories = []
        warm = OptimalMLUCache(workers=lp_workers)
        for cache in (None, OptimalMLUCache(workers=lp_workers), warm, warm):  # warm reused twice
            trainer = Trainer(mesh4_paths, tiny_config, cache=cache)
            histories.append(trainer.fit(train_sequence))
        for history in histories[1:]:
            assert history.epoch_losses == histories[0].epoch_losses
            assert history.epoch_mlu_losses == histories[0].epoch_mlu_losses
            assert (
                history.epoch_sensitivity_losses
                == histories[0].epoch_sensitivity_losses
            )
        # The reused cache really did serve the second fit from memory.
        assert warm.hits > 0

    def test_fit_populates_cache_hit_by_subsequent_evaluation(
        self, mesh4_paths, train_sequence, tiny_config, lp_workers
    ):
        """Train + eval of the same demands never solve one LP twice."""
        cache = OptimalMLUCache(workers=lp_workers)
        scheme = Figret(mesh4_paths, tiny_config, cache=cache)
        scheme.precompute(train_sequence)
        fit_misses = cache.misses
        assert fit_misses > 0

        engine = EvaluationEngine(cache=cache)
        with count_lp_solves() as tally:
            result = engine.evaluate_scheme(scheme, train_sequence, HISTORY)
        # Every normaliser of the training trace was already solved by fit.
        assert cache.misses == fit_misses
        assert tally.count == 0
        assert np.isfinite(result.normalized_mlus).all()

    def test_dote_threads_cache_through_trainer(
        self, mesh4_paths, train_sequence, tiny_config, lp_workers
    ):
        cache = OptimalMLUCache(workers=lp_workers)
        scheme = Dote(mesh4_paths, tiny_config, cache=cache)
        scheme.precompute(train_sequence)
        assert cache.misses == len(train_sequence) - HISTORY

    def test_normalize_by_optimal_false_skips_cache(
        self, mesh4_paths, train_sequence, tiny_config
    ):
        cache = OptimalMLUCache()
        trainer = Trainer(
            mesh4_paths,
            tiny_config.replace(normalize_by_optimal=False),
            cache=cache,
        )
        trainer.fit(train_sequence)
        assert len(cache) == 0


class TestTealLikeNormalisers:
    def test_precompute_uses_cache_and_trains_identically(
        self, mesh4_paths, train_sequence, tiny_config, lp_workers
    ):
        cache = OptimalMLUCache(workers=lp_workers)
        cached_scheme = TealLike(mesh4_paths, tiny_config, cache=cache)
        cached_scheme.precompute(train_sequence)
        # TEAL-like normalises on every training demand (its loss is on the
        # input demand itself), so the cache holds one entry per interval.
        assert cache.misses == len(train_sequence)

        isolated = TealLike(mesh4_paths, tiny_config)
        isolated.precompute(train_sequence)
        window = train_sequence.flat_demands()[:1]
        np.testing.assert_array_equal(
            cached_scheme.configure(window).split_ratios,
            isolated.configure(window).split_ratios,
        )

    def test_teal_cache_hit_by_subsequent_evaluation(
        self, mesh4_paths, train_sequence, tiny_config, lp_workers
    ):
        cache = OptimalMLUCache(workers=lp_workers)
        scheme = TealLike(mesh4_paths, tiny_config, cache=cache)
        scheme.precompute(train_sequence)
        misses = cache.misses
        with count_lp_solves() as tally:
            EvaluationEngine(cache=cache).evaluate_scheme(scheme, train_sequence, 1)
        assert cache.misses == misses
        assert tally.count == 0
