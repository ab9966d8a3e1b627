"""Round-trip tests for the disk-persistent :class:`OptimalMLUCache`.

Contract: a cache persisted by one session and reloaded by a fresh one
serves every previously solved normaliser without a single LP re-solve
(asserted via the raw solver call counter) and with bit-identical values;
corrupt, truncated, or version-mismatched store files degrade to cold
solves with a warning -- never a crash -- and are repaired on the next
flush.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.evaluation.engine import EvaluationEngine
from repro.solvers import lp_solve_calls
from repro.solvers.lp import (
    CACHE_FILE_FORMAT,
    CACHE_FILE_VERSION,
    OptimalMLUCache,
)


@pytest.fixture()
def cache_file(tmp_path):
    return tmp_path / "optimal_mlu_cache.jsonl"


def _demands(mesh4_traffic, count=8):
    return mesh4_traffic[:count].flat_demands()


class TestRoundTrip:
    def test_reload_serves_identical_values_with_zero_solves(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        demands = _demands(mesh4_traffic)
        with OptimalMLUCache(path=cache_file) as first:
            values = first.optimal_mlus(mesh4_paths, demands)
            assert first.misses == len(demands)

        second = OptimalMLUCache(path=cache_file)
        assert second.loaded == len(demands)
        solves_before = lp_solve_calls()
        reloaded = second.optimal_mlus(mesh4_paths, demands)
        assert lp_solve_calls() == solves_before  # zero LP re-solves
        assert second.misses == 0
        assert second.hits == len(demands)
        np.testing.assert_array_equal(reloaded, values)  # bit-identical

    def test_fresh_engine_on_persisted_cache_replays_without_solving(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        from repro.core import Dote, TrainingConfig

        test = mesh4_traffic[:14]
        train, _ = mesh4_traffic.split(0.7)
        scheme = Dote(
            mesh4_paths,
            TrainingConfig(
                epochs=1, history_len=4, hidden_sizes=(8,), normalize_by_optimal=False
            ),
        )
        scheme.precompute(train)
        with OptimalMLUCache(path=cache_file) as cold_cache:
            cold = EvaluationEngine(cache=cold_cache).evaluate_scheme(scheme, test, 4)

        warm_cache = OptimalMLUCache(path=cache_file)
        solves_before = lp_solve_calls()
        warm = EvaluationEngine(cache=warm_cache).evaluate_scheme(scheme, test, 4)
        # A neural scheme's replay only solves LPs for normalisers, so a warm
        # persistent cache means zero solver invocations end to end.
        assert lp_solve_calls() == solves_before
        assert warm_cache.misses == 0
        np.testing.assert_array_equal(warm.normalized_mlus, cold.normalized_mlus)
        np.testing.assert_array_equal(warm.optimal_mlus, cold.optimal_mlus)

    def test_flush_appends_instead_of_rewriting(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        demands = _demands(mesh4_traffic, 6)
        cache = OptimalMLUCache(path=cache_file)
        cache.optimal_mlus(mesh4_paths, demands[:3])
        cache.flush()
        first_lines = cache_file.read_text().splitlines()
        assert len(first_lines) == 1 + 3  # header + entries
        cache.optimal_mlus(mesh4_paths, demands[3:])
        cache.flush()
        lines = cache_file.read_text().splitlines()
        assert lines[: len(first_lines)] == first_lines  # pure append
        assert len(lines) == 1 + len(demands)
        assert OptimalMLUCache(path=cache_file).loaded == len(demands)

    def test_flush_without_new_entries_is_stable(self, mesh4_paths, mesh4_traffic, cache_file):
        cache = OptimalMLUCache(path=cache_file)
        cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 4))
        cache.flush()
        content = cache_file.read_text()
        cache.flush()
        assert cache_file.read_text() == content

    def test_mask_entries_round_trip(self, mesh4_paths, mesh4_traffic, cache_file, rng):
        from repro.te.failures import sample_failed_links

        demand = mesh4_traffic[0].flat()
        failed = sample_failed_links(mesh4_paths.topology, 1, rng)
        mask = mesh4_paths.restrict_to_working_paths(failed)
        with OptimalMLUCache(path=cache_file) as cache:
            masked = cache.optimal_mlu(mesh4_paths, demand, path_mask=mask)
            unmasked = cache.optimal_mlu(mesh4_paths, demand)
        reloaded = OptimalMLUCache(path=cache_file)
        solves_before = lp_solve_calls()
        assert reloaded.optimal_mlu(mesh4_paths, demand, path_mask=mask) == masked
        assert reloaded.optimal_mlu(mesh4_paths, demand) == unmasked
        assert lp_solve_calls() == solves_before

    def test_in_memory_cache_never_touches_disk(self, mesh4_paths, mesh4_traffic, tmp_path):
        cache = OptimalMLUCache()
        cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 3))
        cache.flush()  # no-op
        assert list(tmp_path.iterdir()) == []


class TestDegradedStores:
    """Bad cache files fall back to cold solves instead of crashing."""

    def _assert_cold_but_working(self, cache, mesh4_paths, mesh4_traffic):
        demands = _demands(mesh4_traffic, 3)
        assert cache.loaded == 0
        values = cache.optimal_mlus(mesh4_paths, demands)
        assert cache.misses == len(demands)
        assert np.isfinite(values).all()

    def test_corrupt_file_warns_and_starts_cold(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        cache_file.write_text("this is not json\x00\xff garbage\n{]\n")
        with pytest.warns(RuntimeWarning, match="version-mismatched|unrecognised"):
            cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)
        # The next flush repairs the store in the current format.
        cache.flush()
        repaired = OptimalMLUCache(path=cache_file)
        assert repaired.loaded == cache.misses

    def test_version_mismatch_warns_and_starts_cold(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        header = {"format": CACHE_FILE_FORMAT, "version": CACHE_FILE_VERSION + 1}
        cache_file.write_text(
            json.dumps(header) + "\n" + json.dumps(["fp", "dh", "", 1.5]) + "\n"
        )
        with pytest.warns(RuntimeWarning, match="version-mismatched"):
            cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)

    def test_truncated_trailing_line_keeps_good_entries(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        demands = _demands(mesh4_traffic, 5)
        with OptimalMLUCache(path=cache_file) as cache:
            values = cache.optimal_mlus(mesh4_paths, demands)
        # Simulate a crash mid-append: chop the last line in half.
        content = cache_file.read_text()
        cache_file.write_text(content[: len(content) - 20])
        with pytest.warns(RuntimeWarning, match="corrupt line"):
            recovered = OptimalMLUCache(path=cache_file)
        assert recovered.loaded == len(demands) - 1
        reloaded = recovered.optimal_mlus(mesh4_paths, demands)
        assert recovered.misses == 1  # only the chopped entry re-solves
        np.testing.assert_array_equal(reloaded, values)
        # Flushing compacts the store: all entries, valid lines only.
        recovered.flush()
        assert OptimalMLUCache(path=cache_file).loaded == len(demands)

    def test_empty_file_is_treated_as_fresh(self, mesh4_paths, mesh4_traffic, cache_file):
        cache_file.write_text("")
        cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)
        cache.flush()
        assert OptimalMLUCache(path=cache_file).loaded == cache.misses

    def test_clear_truncates_store_on_flush(self, mesh4_paths, mesh4_traffic, cache_file):
        cache = OptimalMLUCache(path=cache_file)
        cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 4))
        cache.flush()
        cache.clear()
        cache.flush()
        assert OptimalMLUCache(path=cache_file).loaded == 0

    def test_max_entries_bounds_load(self, mesh4_paths, mesh4_traffic, cache_file):
        with OptimalMLUCache(path=cache_file) as cache:
            cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 6))
        bounded = OptimalMLUCache(max_entries=2, path=cache_file)
        assert len(bounded) == 2
        assert bounded.loaded == 2

    def test_missing_parent_directory_created_on_flush(
        self, mesh4_paths, mesh4_traffic, tmp_path
    ):
        nested = tmp_path / "a" / "b" / "cache.jsonl"
        with OptimalMLUCache(path=nested) as cache:
            cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 2))
        assert OptimalMLUCache(path=nested).loaded == 2

    def test_rewrite_flush_keeps_evicted_unflushed_entries(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        """First flush (rewrite branch) must persist entries already evicted."""
        demands = _demands(mesh4_traffic, 3)
        cache = OptimalMLUCache(max_entries=2, path=cache_file)
        cache.optimal_mlus(mesh4_paths, demands)  # 3 solves, 1 evicted
        assert len(cache) == 2
        cache.flush()  # file absent -> rewrite branch
        assert OptimalMLUCache(path=cache_file).loaded == len(demands)

    def test_tilde_in_path_is_expanded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = OptimalMLUCache(path="~/cache/optimal.jsonl")
        assert cache.path == tmp_path / "cache" / "optimal.jsonl"
