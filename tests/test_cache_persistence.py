"""Round-trip tests for the disk-persistent :class:`OptimalMLUCache`.

Contract: every batch of newly solved entries is on disk when the call that
solved it returns -- nothing waits for ``close()`` or interpreter exit, so a
SIGKILLed session keeps what it solved.  A cache persisted by one session and
reloaded by a fresh one serves every previously solved normaliser without a
single LP re-solve (asserted via the raw solver call counter) and with
bit-identical values; corrupt, truncated, or version-mismatched store files
degrade to cold solves with a warning -- never a crash -- and are repaired
by the first write.  The round trips run at both widths of the
``lp_workers`` fixture: a cache whose misses fan out over a 2-wide LP pool
writes the same file, byte for byte, as a sequential one.
"""

from __future__ import annotations

import json
import os
import signal

import numpy as np
import pytest

from repro.evaluation.engine import EvaluationEngine
from repro.solvers import count_lp_solves
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
        self, mesh4_paths, mesh4_traffic, cache_file, lp_workers
    ):
        demands = _demands(mesh4_traffic)
        with OptimalMLUCache(path=cache_file, workers=lp_workers) as first:
            values = first.optimal_mlus(mesh4_paths, demands)
            assert first.misses == len(demands)
        sequential_file = cache_file.with_name("sequential.jsonl")
        with OptimalMLUCache(path=sequential_file) as sequential:
            sequential.optimal_mlus(mesh4_paths, demands)
        assert cache_file.read_bytes() == sequential_file.read_bytes()

        second = OptimalMLUCache(path=cache_file)
        assert second.loaded == len(demands)
        with count_lp_solves() as tally:
            reloaded = second.optimal_mlus(mesh4_paths, demands)
        assert tally.count == 0  # zero LP re-solves
        assert second.misses == 0
        assert second.hits == len(demands)
        np.testing.assert_array_equal(reloaded, values)  # bit-identical

    def test_fresh_engine_on_persisted_cache_replays_without_solving(
        self, mesh4_paths, mesh4_traffic, cache_file, lp_workers
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
        with OptimalMLUCache(path=cache_file, workers=lp_workers) as cold_cache:
            cold = EvaluationEngine(cache=cold_cache).evaluate_scheme(scheme, test, 4)

        warm_cache = OptimalMLUCache(path=cache_file)
        with count_lp_solves() as tally:
            warm = EvaluationEngine(cache=warm_cache).evaluate_scheme(scheme, test, 4)
        # A neural scheme's replay only solves LPs for normalisers, so a warm
        # persistent cache means zero solver invocations end to end.
        assert tally.count == 0
        assert warm_cache.misses == 0
        np.testing.assert_array_equal(warm.normalized_mlus, cold.normalized_mlus)
        np.testing.assert_array_equal(warm.optimal_mlus, cold.optimal_mlus)

    def test_each_solved_batch_is_appended_when_stored(
        self, mesh4_paths, mesh4_traffic, cache_file, lp_workers
    ):
        demands = _demands(mesh4_traffic, 6)
        cache = OptimalMLUCache(path=cache_file, workers=lp_workers)
        cache.optimal_mlus(mesh4_paths, demands[:3])
        first_lines = cache_file.read_text().splitlines()
        assert len(first_lines) == 1 + 3  # header + entries, before any close()
        cache.optimal_mlus(mesh4_paths, demands)  # 3 hits, 3 new entries
        lines = cache_file.read_text().splitlines()
        assert lines[: len(first_lines)] == first_lines  # pure append
        assert len(lines) == 1 + len(demands)
        assert OptimalMLUCache(path=cache_file).loaded == len(demands)
        cache.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="kills a forked child (POSIX only)")
    def test_a_sigkilled_session_keeps_the_batch_it_solved(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        demands = _demands(mesh4_traffic, 5)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child only
            try:
                cache = OptimalMLUCache(path=cache_file)
                cache.optimal_mlus(mesh4_paths, demands)
                os.kill(os.getpid(), signal.SIGKILL)  # no close(), no exit hooks
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        warm = OptimalMLUCache(path=cache_file)
        assert warm.loaded == len(demands)
        with count_lp_solves() as tally:
            warm.optimal_mlus(mesh4_paths, demands)
        assert tally.count == 0
        assert warm.misses == 0

    def test_mask_entries_round_trip(self, mesh4_paths, mesh4_traffic, cache_file, rng):
        from repro.te.failures import sample_failed_links

        demand = mesh4_traffic[0].flat()
        failed = sample_failed_links(mesh4_paths.topology, 1, rng)
        mask = mesh4_paths.restrict_to_working_paths(failed)
        with OptimalMLUCache(path=cache_file) as cache:
            [masked] = cache.optimal_mlus(mesh4_paths, demand, path_mask=mask)
            [unmasked] = cache.optimal_mlus(mesh4_paths, demand)
        assert len(cache) == 2  # the mask is part of the key
        reloaded = OptimalMLUCache(path=cache_file)
        with count_lp_solves() as tally:
            assert reloaded.optimal_mlus(mesh4_paths, demand, path_mask=mask)[0] == masked
            assert reloaded.optimal_mlus(mesh4_paths, demand)[0] == unmasked
        assert tally.count == 0

    def test_in_memory_cache_never_touches_disk(self, mesh4_paths, mesh4_traffic, tmp_path):
        with OptimalMLUCache() as cache:
            cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 3))
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
        with pytest.warns(RuntimeWarning, match="unreadable header.*starts cold"):
            cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)
        # The first write repaired the store in the current format.
        repaired = OptimalMLUCache(path=cache_file)
        assert repaired.loaded == cache.misses

    def test_version_mismatch_warns_and_starts_cold(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        header = {"format": CACHE_FILE_FORMAT, "version": CACHE_FILE_VERSION + 1}
        cache_file.write_text(
            json.dumps(header) + "\n" + json.dumps(["fp", "dh", "", 1.5]) + "\n"
        )
        with pytest.warns(RuntimeWarning, match="unsupported optimal-MLU cache version 2.*starts cold"):
            cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)
        assert OptimalMLUCache(path=cache_file).loaded == cache.misses

    def test_truncated_trailing_line_keeps_good_entries(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        demands = _demands(mesh4_traffic, 5)
        with OptimalMLUCache(path=cache_file) as cache:
            values = cache.optimal_mlus(mesh4_paths, demands)
        # Simulate a crash mid-append: chop the last line in half.
        content = cache_file.read_text()
        cache_file.write_text(content[: len(content) - 20])
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            recovered = OptimalMLUCache(path=cache_file)
        assert recovered.loaded == len(demands) - 1
        # Writing the re-solved entry compacts the store first: all
        # entries, valid lines only.
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            reloaded = recovered.optimal_mlus(mesh4_paths, demands)
        assert recovered.misses == 1  # only the chopped entry re-solves
        np.testing.assert_array_equal(reloaded, values)
        assert len(cache_file.read_text().splitlines()) == 1 + len(demands)
        assert OptimalMLUCache(path=cache_file).loaded == len(demands)

    def test_entry_that_lost_its_newline_survives_the_next_write(
        self, mesh4_paths, mesh4_traffic, cache_file, recwarn
    ):
        """A write must not append onto a complete but unterminated last
        entry: the merged line would read as junk and drop both entries."""
        demands = _demands(mesh4_traffic, 6)
        with OptimalMLUCache(path=cache_file) as cache:
            cache.optimal_mlus(mesh4_paths, demands[:5])
        cache_file.write_text(cache_file.read_text().rstrip("\n"))
        reopened = OptimalMLUCache(path=cache_file)
        assert reopened.loaded == 5
        reopened.optimal_mlus(mesh4_paths, demands)
        assert reopened.misses == 1
        assert OptimalMLUCache(path=cache_file).loaded == 6
        assert not recwarn.list

    def test_junk_mid_file_warns_and_starts_cold(
        self, mesh4_paths, mesh4_traffic, cache_file
    ):
        with OptimalMLUCache(path=cache_file) as cache:
            cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 3))
        header, *entries = cache_file.read_text().splitlines()
        cache_file.write_text("\n".join([header, "junk", *entries]) + "\n")
        with pytest.warns(RuntimeWarning, match="line 2.*starts cold"):
            cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)
        assert OptimalMLUCache(path=cache_file).loaded == cache.misses

    def test_empty_file_is_treated_as_fresh(self, mesh4_paths, mesh4_traffic, cache_file):
        cache_file.write_text("")
        cache = OptimalMLUCache(path=cache_file)
        self._assert_cold_but_working(cache, mesh4_paths, mesh4_traffic)
        assert OptimalMLUCache(path=cache_file).loaded == cache.misses

    def test_eviction_bounds_memory_and_load(
        self, mesh4_paths, mesh4_traffic, cache_file, monkeypatch
    ):
        monkeypatch.setattr("repro.solvers.lp.MAX_CACHE_ENTRIES", 2)
        demands = _demands(mesh4_traffic, 6)
        with OptimalMLUCache(path=cache_file) as cache:
            cache.optimal_mlus(mesh4_paths, demands)
            assert len(cache) == 2  # evicted from memory ...
        assert len(cache_file.read_text().splitlines()) == 1 + 6  # ... not from disk
        bounded = OptimalMLUCache(path=cache_file)
        assert len(bounded) == 2
        assert bounded.loaded == 2

    def test_missing_parent_directory_created_by_the_first_write(
        self, mesh4_paths, mesh4_traffic, tmp_path
    ):
        nested = tmp_path / "a" / "b" / "cache.jsonl"
        with OptimalMLUCache(path=nested) as cache:
            cache.optimal_mlus(mesh4_paths, _demands(mesh4_traffic, 2))
        assert OptimalMLUCache(path=nested).loaded == 2

    def test_tilde_in_path_is_expanded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = OptimalMLUCache(path="~/cache/optimal.jsonl")
        assert cache.path == tmp_path / "cache" / "optimal.jsonl"
