"""The one process pool: executors by width, the width rule, and the fallback.

LP batches (:func:`repro.solvers.lp.solve_mlu_lp_batch`) and study-cell
groups (:meth:`repro.study.Study.execute` under ``cell_workers``) both fan
their jobs out through :func:`fan_out`, over long-lived executors kept here
by width.  This module alone decides when a pool counts as unusable
(:data:`POOL_ERRORS`) and what happens then: the pool is discarded, the
label's counter in :func:`fallbacks` goes up, the label's first fallback
warns, and the jobs the pool could not run are handed back to the caller to
run in-process -- where a genuine error raises again with its usual note.
The next call opens a fresh pool.  Standard library only.
"""

from __future__ import annotations

import atexit
import os
import pickle
import warnings
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "HANDED_BACK",
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

#: What :func:`fan_out` yields in place of a result for a job it hands back.
HANDED_BACK = object()

#: Long-lived pools keyed by width, reused across calls so a streaming replay
#: does not pay pool startup once per chunk.
_POOL_CACHE: dict[int, ProcessPoolExecutor] = {}

#: Fallbacks so far in this process, per :func:`fan_out` label.
_FALLBACKS: dict[str, int] = {}


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


def fallbacks(label: str) -> int:
    """How many :func:`fan_out` calls with this label fell back so far."""
    return _FALLBACKS.get(label, 0)


def _fall_back(workers: int, label: str, what: str, error: BaseException) -> None:
    _discard_pool(workers)
    _FALLBACKS[label] = fallbacks(label) + 1
    if _FALLBACKS[label] == 1:
        warnings.warn(
            f"process-pool {what} failed ({error!r}); its jobs run in-process "
            "for this call and the next call tries a fresh pool (results are "
            f"identical, just slower).  Later fallbacks are counted in "
            f"repro.pool.fallbacks({label!r}), not warned about",
            RuntimeWarning,
            stacklevel=4,
        )


def fan_out(
    fn: Callable, jobs: Sequence, workers: int, label: str, what: str
) -> Iterator[tuple[int, object]]:
    """Run ``fn(job)`` for every job on the width-``workers`` pool.

    Yields ``(index, result)`` exactly once per job, in completion order,
    with :data:`HANDED_BACK` as the result of a job the pool could not run.
    The first :data:`POOL_ERRORS` of a call falls back (see the module
    docstring; ``what`` names the work in the warning).  Any other
    exception raised by ``fn`` propagates.
    """
    try:
        pool = _pool(workers)
        futures = {pool.submit(fn, job): index for index, job in enumerate(jobs)}
    except POOL_ERRORS as error:
        _fall_back(workers, label, what, error)
        for index in range(len(jobs)):
            yield index, HANDED_BACK
        return
    remaining = dict(futures)
    for future in as_completed(futures):
        index = remaining.pop(future)
        error = future.exception()
        if not isinstance(error, POOL_ERRORS):
            yield index, future.result()
            continue
        _fall_back(workers, label, what, error)
        yield index, HANDED_BACK
        # Discarding the pool settled every other future: keep what came
        # back, hand back what was cancelled or lost with the pool.
        for future, index in remaining.items():
            lost = future.cancelled() or isinstance(future.exception(), POOL_ERRORS)
            yield index, HANDED_BACK if lost else future.result()
        return
