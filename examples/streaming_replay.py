"""Streaming evaluation with a disk-persistent LP cache.

Run with::

    python examples/streaming_replay.py

The script replays a TE scheme over a trace *as a stream* -- the engine only
ever buffers ``history_len + chunk_size`` demand rows, which is how month-
long production traces replay without fitting in memory -- and persists the
omniscient-optimal LP results to disk.  A simulated second session then
reloads the cache and replays the whole trace without solving a single LP.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import datasets
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import DesensitizationTE, OptimalMLUCache


def main() -> None:
    scenario = datasets.load("meta_pod_db_small", seed=7, num_intervals=80)
    train, test = scenario.split()
    scheme = DesensitizationTE(scenario.paths)
    scheme.precompute(train)
    history_len = scenario.history_len
    chunk_size = 8
    cache_file = Path(tempfile.mkdtemp(prefix="repro-cache-")) / "optimal_mlus.jsonl"

    print(f"Scenario: {scenario.name}, {len(test)} test intervals")
    print(
        f"Streaming replay in chunks of {chunk_size} intervals "
        f"(buffering at most {history_len + chunk_size} demand rows)\n"
    )

    # --- Session 1: stream the trace, solving LPs cold; each solved batch
    # is written to the cache file as it is stored (`with` only closes it).
    start = time.perf_counter()
    with OptimalMLUCache(path=cache_file) as cache:
        engine = EvaluationEngine(cache=cache)
        result = engine.evaluate_streaming(
            scheme,
            (matrix.flat() for matrix in test),  # a true row stream
            history_len,
            chunk_size=chunk_size,
        )
        cold_seconds = time.perf_counter() - start
        print(
            f"Session 1: mean normalised MLU {result.statistics.mean:.3f}, "
            f"{cache.misses} LP solves in {cold_seconds:.2f}s; "
            f"cache persisted to {cache_file}"
        )

    # --- Session 2: a fresh cache object (think: a new benchmark process)
    # loads the store and the same replay performs zero omniscient solves.
    start = time.perf_counter()
    warm_cache = OptimalMLUCache(path=cache_file)
    engine = EvaluationEngine(cache=warm_cache)
    warm = engine.evaluate_streaming(
        scheme,
        (matrix.flat() for matrix in test),
        history_len,
        chunk_size=chunk_size,
    )
    warm_seconds = time.perf_counter() - start
    print(
        f"Session 2: loaded {warm_cache.loaded} cached entries, "
        f"{warm_cache.misses} cache misses, mean normalised MLU "
        f"{warm.statistics.mean:.3f} in {warm_seconds:.2f}s"
    )
    assert warm_cache.misses == 0
    print("Session 2 solved zero omniscient LPs -- the cold pass is skipped entirely.")


if __name__ == "__main__":
    main()
