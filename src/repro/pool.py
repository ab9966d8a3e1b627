"""The one process pool: executors by width, the width rule, and the fallback.

LP batches (:func:`repro.solvers.lp.solve_mlu_lp_batch`) fan their chunks
out through :func:`fan_out`, over long-lived executors kept here by width.
This module alone decides when a pool counts as unusable
(:data:`POOL_ERRORS`) and what happens then: the pool is discarded, the
counter in :func:`fallbacks` goes up, the first fallback warns, and the jobs
the pool did not finish are run in-process -- where a genuine error raises
again with its usual note.  The next call opens a fresh pool.  Standard
library only.
"""

from __future__ import annotations

import atexit
import os
import pickle
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "POOL_ERRORS",
    "default_workers",
    "fallbacks",
    "fan_out",
    "resolve_workers",
]

#: Exceptions that mean "the pool cannot run this job", not "the job failed":
#: a dead pool, a job or result that does not pickle (pickle raises
#: ``AttributeError`` / ``TypeError`` for unpicklable locals), and an
#: ``OSError`` from spawning workers (``PermissionError`` in sandboxes).
POOL_ERRORS = (BrokenProcessPool, pickle.PicklingError, AttributeError, TypeError, OSError)

#: Long-lived pools keyed by width, reused across calls so a streaming replay
#: does not pay pool startup once per chunk.
_POOL_CACHE: dict[int, ProcessPoolExecutor] = {}

#: Fallbacks so far in this process.
_FALLBACKS = 0


def _pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOL_CACHE.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOL_CACHE[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _POOL_CACHE.pop(workers, None)
    if pool is not None:
        try:
            pool.shutdown(cancel_futures=True)
        except Exception:
            pass


@atexit.register
def _shutdown_pools() -> None:
    for workers in list(_POOL_CACHE):
        _discard_pool(workers)


def default_workers() -> int:
    """Pool width from the CPU count: one core left to the parent, at most 8."""
    return max(1, min(8, (os.cpu_count() or 1) - 1))


def resolve_workers(workers: int | str | None) -> int | None:
    """Normalise and validate a pool width.

    Accepted forms: ``None`` (sequential), ``"auto"``
    (:func:`default_workers`) or an int of at least 1; anything else raises
    a :class:`ValueError` naming them.
    """
    if workers is None:
        return None
    if workers == "auto":
        return default_workers()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(
            "workers must be None (sequential), 'auto' (a CPU-count-derived "
            f"width) or an int of at least 1, got {workers!r}"
        )
    return workers


def fallbacks() -> int:
    """How many :func:`fan_out` calls fell back so far."""
    return _FALLBACKS


def _fall_back(workers: int, error: BaseException) -> None:
    global _FALLBACKS
    _discard_pool(workers)
    _FALLBACKS += 1
    if _FALLBACKS == 1:
        warnings.warn(
            f"process-pool LP batch failed ({error!r}); its jobs run in-process "
            "for this call and the next call tries a fresh pool (results are "
            "identical, just slower).  Later fallbacks are counted in "
            "repro.pool.fallbacks(), not warned about",
            RuntimeWarning,
            stacklevel=4,
        )


def fan_out(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``[fn(job) for job in jobs]``, computed on the width-``workers`` pool.

    The first :data:`POOL_ERRORS` of a call falls back (see the module
    docstring): jobs the pool did not finish -- all of them if it could not
    start, else the one it broke under and the ones cancelled or lost with
    it -- run in-process.  Any other exception raised by ``fn`` propagates.
    """
    results: list = [None] * len(jobs)
    try:
        pool = _pool(workers)
        futures = {pool.submit(fn, job): index for index, job in enumerate(jobs)}
    except POOL_ERRORS as error:
        _fall_back(workers, error)
        return [fn(job) for job in jobs]
    remaining = dict(futures)
    for future in as_completed(futures):
        index = remaining.pop(future)
        error = future.exception()
        if not isinstance(error, POOL_ERRORS):
            results[index] = future.result()
            continue
        _fall_back(workers, error)
        results[index] = fn(jobs[index])
        # Discarding the pool settled every other future: keep what came
        # back, run what was cancelled or lost with the pool.
        for future, index in remaining.items():
            lost = future.cancelled() or isinstance(future.exception(), POOL_ERRORS)
            results[index] = fn(jobs[index]) if lost else future.result()
        break
    return results
