"""Linear-programming MLU minimisation (Appendix B, Equation 9).

Given a demand matrix and a candidate path set, the optimal split ratios that
minimise the maximum link utilisation are the solution of the LP:

    minimise    t
    subject to  sum_{p in P_sd} r_p = 1                      for every SD pair
                sum_{p: e in p} D_{sd(p)} r_p <= t * c(e)    for every edge e
                r_p >= 0

This module provides the raw solver (:func:`solve_mlu_lp`), a batched variant
(:func:`solve_mlu_lp_batch`) with optional process-pool fan-out, the
omniscient benchmark used to normalise every MLU the paper reports
(:func:`omniscient_mlu`), a disk-persistable cache for those normalisers
(:class:`OptimalMLUCache`, with a process-wide instance via
:func:`shared_cache`), and the two simplest schemes built directly on
the LP: :class:`OmniscientTE` (perfect knowledge of the next demand) and
:class:`PredictionBasedTE` (solve for a demand predicted from history).

The LP's constraint matrices depend on the demand only through a diagonal
rescale of the path-to-edge incidence, so everything demand-independent
(sparsity pattern, equality rows, capacity column, bounds template) is
precomputed once per :class:`PathSet` in :class:`MLUConstraintStructure` and
shared by every subsequent solve.

The solver itself is pluggable (see :mod:`repro.solvers.lp_backend`): the
``scipy`` backend runs ``linprog`` per demand, the ``highs`` backend keeps
one persistent HiGHS model per (path set, bounds) key and starts every solve
from a canonical shortest-path basis, and the default (``"auto"``) solves
value-only normalisers on ``highs`` and vertex-returning LPs on ``scipy`` --
selected per call (``backend=``) or per process (``REPRO_LP_BACKEND``).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.paths.path_set import PathSet
from repro.solvers.lp_backend import (
    LPBackend,
    available_lp_backends,
    resolve_lp_backend,
)
from repro.te.config import TEConfiguration
from repro.te.scheme import TEScheme

__all__ = [
    "LPSolveError",
    "MLUConstraintStructure",
    "constraint_structure",
    "solve_mlu_lp",
    "solve_mlu_lp_batch",
    "omniscient_mlu",
    "OptimalMLUCache",
    "shared_cache",
    "default_lp_workers",
    "resolve_lp_workers",
    "LP_WORKERS_ENV_VAR",
    "lp_solve_calls",
    "count_lp_solves",
    "LPSolveTally",
    "OmniscientTE",
    "PredictionBasedTE",
    "predict_demand",
]


class LPSolveError(RuntimeError):
    """Raised when the LP solver fails to find an optimal solution."""


#: Raw LP solve counter (this process only); see :func:`lp_solve_calls`.
_LP_SOLVE_CALLS = 0


def lp_solve_calls() -> int:
    """Number of raw MLU LP solves performed so far in this process.

    Process-pool workers count in their own processes, so with ``workers``
    set the parent's counter only reflects in-process solves.  Prefer
    :func:`count_lp_solves` for assertions: absolute values of this
    process-global counter depend on everything that ran earlier in the
    process (other tests, a warm shared cache, ...), so they cross-
    contaminate between suites and between CI jobs sharing a worker.
    """
    return _LP_SOLVE_CALLS


class LPSolveTally:
    """A scoped view of the LP solve counter (see :func:`count_lp_solves`)."""

    def __init__(self) -> None:
        self._start = _LP_SOLVE_CALLS

    @property
    def count(self) -> int:
        """Raw LP solves since this tally was started."""
        return _LP_SOLVE_CALLS - self._start

    def reset(self) -> None:
        """Restart the tally at the current counter value."""
        self._start = _LP_SOLVE_CALLS


class count_lp_solves:
    """Context manager scoping the process-global LP solve counter.

    Yields an :class:`LPSolveTally` whose ``count`` is relative to scope
    entry, so concurrent/ordered test runs (pytest-xdist workers, the CI
    backend matrix) can assert exact solve counts without caring what ran
    before them in the process::

        with count_lp_solves() as tally:
            engine.evaluate_scheme(...)
        assert tally.count == 0   # warm cache: no new solves

    The tally keeps counting after the ``with`` block exits; nesting is
    fine (each scope has its own baseline).
    """

    def __enter__(self) -> LPSolveTally:
        self._tally = LPSolveTally()
        return self._tally

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


def default_lp_workers(cap: int = 8) -> int:
    """Process-pool width derived from the machine's CPU count.

    Leaves one core for the parent process and caps the width: LP batches
    are short-lived, so very wide pools pay more in pickling/startup than
    they win back.  Returns 1 (sequential) on single-core machines.
    """
    return max(1, min(cap, (os.cpu_count() or 1) - 1))


class MLUConstraintStructure:
    """Demand-independent pieces of the MLU LP for one :class:`PathSet`.

    Variable layout: ``[r_0 ... r_{P-1}, t]``.  The inequality matrix
    ``A_ub = [PathToEdge^T * diag(demand_per_path) | -capacities]`` only
    depends on the demand through a per-column rescale, so the template is
    assembled once in CSC form and each solve merely multiplies the stored
    base data by its column's demand -- a cheap :func:`numpy` gather instead
    of a sparse-matrix build.
    """

    def __init__(self, path_set: PathSet) -> None:
        # Deliberately no reference to the PathSet itself: instances live as
        # values of a WeakKeyDictionary keyed by the PathSet, so holding it
        # here would keep the key alive forever.  Only the arrays a_ub()
        # needs are kept.
        self.num_paths = path_set.num_paths
        self.num_sd_pairs = path_set.num_sd_pairs
        self._path_sd_index = path_set.path_sd_index
        num_paths = path_set.num_paths
        num_edges = path_set.topology.num_edges
        num_pairs = path_set.num_sd_pairs

        self.cost = np.zeros(num_paths + 1)
        self.cost[-1] = 1.0

        # Equality: per-pair ratios sum to one.
        self.a_eq = sparse.hstack(
            [path_set.sd_to_path, sparse.csr_matrix((num_pairs, 1))]
        ).tocsr()
        self.b_eq = np.ones(num_pairs)
        self.b_ub = np.zeros(num_edges)

        # Inequality template: per-edge load minus t * capacity <= 0, with the
        # demand scaling left at one.
        capacity_col = sparse.csr_matrix(
            (-path_set.topology.capacities, (np.arange(num_edges), np.zeros(num_edges, dtype=int))),
            shape=(num_edges, 1),
        )
        template = sparse.hstack([path_set.path_to_edge.T, capacity_col]).tocsc()
        template.sort_indices()
        self._template = template
        self._base_data = template.data.copy()
        # Column index of every stored non-zero (for the diagonal rescale).
        self._nnz_column = np.repeat(
            np.arange(num_paths + 1), np.diff(template.indptr)
        )
        self._trivial_upper: np.ndarray | None = None
        self._trivial_bounds: np.ndarray | None = None

    @property
    def trivial_upper(self) -> np.ndarray:
        """Per-path ratio upper bounds with no caps and no mask (all ones).

        Built lazily, cached, and returned as the *same* array every call, so
        the common omniscient path allocates nothing per demand and callers
        can use an identity check for the trivial case.
        """
        if self._trivial_upper is None:
            upper = np.ones(self.num_paths)
            upper.setflags(write=False)
            self._trivial_upper = upper
        return self._trivial_upper

    @property
    def trivial_bounds(self) -> np.ndarray:
        """The cached ``(num_paths + 1, 2)`` linprog bounds of the trivial case."""
        if self._trivial_bounds is None:
            self._trivial_bounds = self._bounds_from(self.trivial_upper)
            self._trivial_bounds.setflags(write=False)
        return self._trivial_bounds

    def _bounds_from(self, upper: np.ndarray) -> np.ndarray:
        bounds = np.zeros((self.num_paths + 1, 2))
        bounds[: self.num_paths, 1] = upper
        bounds[self.num_paths, 1] = np.inf
        return bounds

    def bounds_array(self, upper: np.ndarray) -> np.ndarray:
        """Vectorised ``linprog`` bounds ``[(0, u_p)..., (0, inf)]`` for ``upper``.

        One ``(n + 1, 2)`` ndarray instead of a per-solve Python list of
        tuples; the trivial (no caps, no mask) array is cached.
        """
        if upper is self.trivial_upper:
            return self.trivial_bounds
        return self._bounds_from(upper)

    def a_ub(self, demand_vector: np.ndarray) -> sparse.csc_matrix:
        """Inequality matrix for one demand vector (shared sparsity arrays)."""
        num_paths = self.num_paths
        demand = np.asarray(demand_vector, dtype=float)
        if demand.shape != (self.num_sd_pairs,):
            raise ValueError(
                f"demand vector must have {self.num_sd_pairs} entries, got {demand.shape}"
            )
        scale = np.empty(num_paths + 1)
        scale[:num_paths] = demand[self._path_sd_index]
        scale[num_paths] = 1.0
        data = self._base_data * scale[self._nnz_column]
        return sparse.csc_matrix(
            (data, self._template.indices, self._template.indptr),
            shape=self._template.shape,
        )


_STRUCTURES: "weakref.WeakKeyDictionary[PathSet, MLUConstraintStructure]" = (
    weakref.WeakKeyDictionary()
)


def constraint_structure(path_set: PathSet) -> MLUConstraintStructure:
    """The (cached) precomputed constraint structure of a path set."""
    structure = _STRUCTURES.get(path_set)
    if structure is None:
        structure = MLUConstraintStructure(path_set)
        _STRUCTURES[path_set] = structure
    return structure


def _ratio_upper_bounds(
    path_set: PathSet,
    sensitivity_caps: np.ndarray | None,
    path_mask: np.ndarray | None,
) -> np.ndarray:
    """Per-path ratio upper bounds implied by sensitivity caps and failures."""
    num_paths = path_set.num_paths
    num_pairs = path_set.num_sd_pairs
    upper = np.ones(num_paths)
    if sensitivity_caps is not None:
        caps = np.asarray(sensitivity_caps, dtype=float)
        if caps.shape != (num_paths,):
            raise ValueError("sensitivity_caps must have one entry per path")
        upper = np.minimum(upper, np.clip(caps, 0.0, 1.0))
    if path_mask is not None:
        mask = np.asarray(path_mask, dtype=bool)
        if mask.shape != (num_paths,):
            raise ValueError("path_mask must have one entry per path")
        # Pairs whose candidate paths have all been masked keep the LP
        # feasible by re-allowing all of their paths (their traffic is lost
        # in reality; the caller decides how to account for it).
        pair_has_path = np.zeros(num_pairs, dtype=bool)
        np.logical_or.at(pair_has_path, path_set.path_sd_index, mask)
        effective_mask = mask | ~pair_has_path[path_set.path_sd_index]
        upper = np.where(effective_mask, upper, 0.0)

    # Guarantee feasibility: if a pair's ratio upper bounds sum to less than
    # one (tight sensitivity caps, possibly combined with masked paths), relax
    # that pair's usable caps to 1 -- the same escape hatch Appendix C.1
    # describes for over-tight constraints.
    cap_sums = np.zeros(num_pairs)
    np.add.at(cap_sums, path_set.path_sd_index, upper)
    infeasible_pairs = cap_sums < 1.0 - 1e-9
    if infeasible_pairs.any():
        relax = infeasible_pairs[path_set.path_sd_index] & (upper > 0.0)
        upper = np.where(relax, 1.0, upper)
        # A pair whose caps were all zero (fully masked and zero-capped) gets
        # every path re-enabled so the LP remains well posed.
        cap_sums = np.zeros(num_pairs)
        np.add.at(cap_sums, path_set.path_sd_index, upper)
        still_bad = cap_sums < 1.0 - 1e-9
        if still_bad.any():
            upper = np.where(still_bad[path_set.path_sd_index], 1.0, upper)
    return upper


def _resolved_upper_bounds(
    path_set: PathSet,
    structure: MLUConstraintStructure,
    sensitivity_caps: np.ndarray | None,
    path_mask: np.ndarray | None,
) -> np.ndarray:
    """Ratio upper bounds, served from the structure cache when trivial."""
    if sensitivity_caps is None and path_mask is None:
        return structure.trivial_upper
    return _ratio_upper_bounds(path_set, sensitivity_caps, path_mask)


def _checked_demand(demand_vector, num_sd_pairs: int) -> np.ndarray:
    demand = np.asarray(demand_vector, dtype=float)
    if demand.shape != (num_sd_pairs,):
        raise ValueError(
            f"demand vector must have {num_sd_pairs} entries, got {demand.shape}"
        )
    return demand


def solve_mlu_lp(
    path_set: PathSet,
    demand_vector: np.ndarray,
    sensitivity_caps: np.ndarray | None = None,
    path_mask: np.ndarray | None = None,
    backend: "LPBackend | str | None" = None,
) -> tuple[TEConfiguration, float]:
    """Solve the MLU-minimisation LP for a single demand vector.

    The demand-independent constraint structure is precomputed once per
    path set (see :class:`MLUConstraintStructure`), so repeated solves over
    the same path set only pay for the diagonal rescale and the solver run.

    Args:
        path_set: Candidate paths.
        demand_vector: Demands in SD-pair order.
        sensitivity_caps: Optional per-path upper bounds on the split ratio
            implied by a path-sensitivity constraint (``r_p <= cap_p``).  This
            is how the Desensitization-based and heuristic-F schemes restrict
            the solution space.
        path_mask: Optional boolean mask of usable paths (False = the path is
            unavailable, e.g. it traverses a failed link).  Pairs whose paths
            are all masked keep a uniform split.
        backend: LP solver backend -- an :class:`~repro.solvers.lp_backend.
            LPBackend` instance, a registered name (``"scipy"``, ``"highs"``,
            ``"auto"``), or None for the process default
            (``REPRO_LP_BACKEND``, ``"auto"`` if unset: this full solve
            then runs on scipy, value-only solves on highs).

    Returns:
        ``(configuration, optimal MLU)``.

    Raises:
        LPSolveError: If the LP is infeasible or the solver fails.
    """
    global _LP_SOLVE_CALLS
    _LP_SOLVE_CALLS += 1
    structure = constraint_structure(path_set)
    demand = _checked_demand(demand_vector, structure.num_sd_pairs)
    upper = _resolved_upper_bounds(path_set, structure, sensitivity_caps, path_mask)
    ratios, mlu = resolve_lp_backend(backend).solve(path_set, demand, upper)
    return TEConfiguration(path_set, ratios, normalize=True), mlu


def _solve_batch_chunk(args) -> list[tuple[np.ndarray | None, float]]:
    """Process-pool worker: solve a chunk of demands over one path set.

    The sequential batch, in this process -- so the chunk resolves its LP
    backend once and, with the persistent ``highs`` backend, every solve
    after the first reuses one model built for the whole chunk.  The
    configurations go back as bare ratio arrays (cheaper to pickle).
    """
    path_set, demands, sensitivity_caps, path_mask, backend_name, mlu_only = args
    solved = solve_mlu_lp_batch(
        path_set, demands, sensitivity_caps, path_mask,
        workers=1, backend=backend_name, mlu_only=mlu_only,
    )
    return [
        (config.split_ratios if config is not None else None, mlu)
        for config, mlu in solved
    ]


#: Long-lived process pools keyed by width, reused across batch calls so a
#: streaming replay does not pay pool startup once per chunk.
_POOL_CACHE: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    for pool in _POOL_CACHE.values():
        try:
            pool.shutdown(cancel_futures=True)
        except Exception:
            pass
    _POOL_CACHE.clear()


atexit.register(_shutdown_pools)


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


#: Environment variable naming the default LP process-pool width.
LP_WORKERS_ENV_VAR = "REPRO_LP_WORKERS"


def _env_lp_workers() -> int | None:
    """The ``REPRO_LP_WORKERS`` default, validated like an explicit argument."""
    raw = os.environ.get(LP_WORKERS_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    raw = raw.strip()
    if raw.lower() == "auto":
        return default_lp_workers()
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{LP_WORKERS_ENV_VAR} must be unset, a positive int, or 'auto', "
            f"got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{LP_WORKERS_ENV_VAR} must be at least 1, got {value}; unset it "
            "for sequential execution or use 'auto' for a CPU-count-derived "
            "width"
        )
    return value


def resolve_lp_workers(
    workers: int | str | None = None, use_env: bool = True
) -> int | None:
    """Normalise and validate a ``workers`` argument.

    Accepted forms: ``None`` (defer to ``REPRO_LP_WORKERS``, sequential when
    that is unset too), a positive int (pool width), or the string ``"auto"``
    (a CPU-count-derived width).  Anything else -- including ``0`` and
    negative ints, which would otherwise be silently treated as sequential
    here and then blow up (or hang) inside the process-pool layer -- raises a
    :class:`ValueError` naming the accepted forms; a contradictory
    environment value is rejected with the same error shape.

    Args:
        workers: The caller's explicit argument (always wins over the
            environment).
        use_env: Pass False for worker knobs that must *not* inherit the LP
            pool width -- the study layer's ``cell_workers`` shares this
            guard but fans out whole cells, and nesting one pool per cell
            worker inside the cell pool is never what ``REPRO_LP_WORKERS``
            means.
    """
    if workers is None:
        return _env_lp_workers() if use_env else None
    if workers == "auto":
        return default_lp_workers()
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be None, a positive int, or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ValueError(
            f"workers must be at least 1, got {workers}; pass None for sequential "
            "execution or 'auto' for a CPU-count-derived width"
        )
    return workers


def solve_mlu_lp_batch(
    path_set: PathSet,
    demands: np.ndarray,
    sensitivity_caps: np.ndarray | None = None,
    path_mask: np.ndarray | None = None,
    workers: int | str | None = None,
    backend: "LPBackend | str | None" = None,
    mlu_only: bool = False,
) -> list[tuple[TEConfiguration | None, float]]:
    """Solve the MLU LP for every row of a ``(T, num_sd_pairs)`` demand array.

    The solves are independent, so with ``workers`` set (an int, ``"auto"``
    for an ``os.cpu_count()``-derived width, or ``REPRO_LP_WORKERS`` as the
    process default) they fan out over a long-lived process pool shared by
    all batch calls of that width (each worker rebuilds the constraint
    structure -- and, for the ``highs`` backend, one persistent model --
    once per chunk, then reuses it).  With no width configured the solves
    run sequentially in-process, still sharing one precomputed structure,
    one resolved bounds array, and one persistent model.  When the pool
    cannot be used at all -- the path set fails to pickle, process spawning
    is forbidden by the sandbox, or the pool dies -- the batch falls back to
    the sequential path and a single :class:`RuntimeWarning` is emitted for
    the whole process instead of failing (or silently degrading).

    Args:
        backend: LP solver backend (instance, registered name, ``"auto"``,
            or None for the ``REPRO_LP_BACKEND`` process default).  Pool
            workers re-resolve the backend *by name* in their own process;
            an unregistered custom instance therefore solves sequentially.
        mlu_only: When True, skip building the configurations and return
            ``(None, optimal MLU)`` per row -- the normaliser fast path used
            by :class:`OptimalMLUCache` (the values are identical, solution
            extraction is just skipped).

    Returns:
        A list of ``(configuration, optimal MLU)`` tuples, one per demand row
        (``(None, optimal MLU)`` with ``mlu_only``).
    """
    demands = np.asarray(demands, dtype=float)
    if demands.ndim == 1:
        demands = demands[None, :]
    workers = resolve_lp_workers(workers)
    lp_backend = resolve_lp_backend(backend)
    pooled_name = lp_backend.name if lp_backend.name in available_lp_backends() else None
    if (
        workers is not None
        and workers > 1
        and len(demands) > 1
        and pooled_name is not None
    ):
        num_chunks = min(workers, len(demands))
        chunks = np.array_split(demands, num_chunks)
        jobs = [
            (path_set, chunk, sensitivity_caps, path_mask, pooled_name, mlu_only)
            for chunk in chunks
        ]
        try:
            chunk_results = list(_pool(workers).map(_solve_batch_chunk, jobs))
        except (
            pickle.PicklingError,
            AttributeError,  # unpicklable locals raise this from pickle
            TypeError,  # "cannot pickle ..." surfaces as TypeError too
            BrokenProcessPool,
            OSError,  # includes PermissionError from sandboxed spawns
        ) as exc:
            _discard_pool(workers)
            _warn_pool_fallback(exc)
        else:
            return [
                (
                    TEConfiguration(path_set, ratios, normalize=False)
                    if ratios is not None
                    else None,
                    mlu,
                )
                for chunk in chunk_results
                for ratios, mlu in chunk
            ]
    global _LP_SOLVE_CALLS
    structure = constraint_structure(path_set)
    upper = _resolved_upper_bounds(path_set, structure, sensitivity_caps, path_mask)
    results: list[tuple[TEConfiguration | None, float]] = []
    for demand in demands:
        _LP_SOLVE_CALLS += 1
        demand = _checked_demand(demand, structure.num_sd_pairs)
        if mlu_only:
            results.append((None, lp_backend.solve_mlu(path_set, demand, upper)))
        else:
            ratios, mlu = lp_backend.solve(path_set, demand, upper)
            results.append((TEConfiguration(path_set, ratios, normalize=True), mlu))
    return results


_POOL_FALLBACK_WARNED = False


def _warn_pool_fallback(exc: BaseException) -> None:
    """Warn (once per process) that LP batches run sequentially."""
    global _POOL_FALLBACK_WARNED
    if _POOL_FALLBACK_WARNED:
        return
    _POOL_FALLBACK_WARNED = True
    warnings.warn(
        f"process-pool LP batch failed ({exc!r}); solving sequentially "
        "in-process from now on (results are identical, just slower)",
        RuntimeWarning,
        stacklevel=3,
    )


def omniscient_mlu(path_set: PathSet, demand_vector: np.ndarray) -> float:
    """Optimal MLU with perfect knowledge of the demand (the paper's oracle).

    Every MLU reported by the paper's figures is normalised by this value.
    Returns a tiny positive floor instead of exactly zero for all-zero
    demands so normalisation never divides by zero.
    """
    [(_, mlu)] = solve_mlu_lp_batch(path_set, demand_vector, mlu_only=True)
    return max(mlu, 1e-12)


#: On-disk format marker of the persistent cache (see :class:`OptimalMLUCache`).
CACHE_FILE_FORMAT = "repro-optimal-mlu-cache"
#: Bump to invalidate every existing cache file (e.g. if the LP, the floor,
#: or the key derivation changes in a way that alters cached values).
CACHE_FILE_VERSION = 1


def _flush_cache_ref(ref: "weakref.ref[OptimalMLUCache]") -> None:
    """atexit hook: flush a still-alive persistent cache (never raises)."""
    cache = ref()
    if cache is None:
        return
    try:
        # Only write if something is actually pending, so an already-flushed
        # cache whose directory has since been cleaned up (tmp dirs in tests)
        # is not resurrected at interpreter exit.
        if cache._unflushed or cache._needs_rewrite:
            cache.flush()
    except Exception:  # interpreter shutdown is no place for tracebacks
        pass


class OptimalMLUCache:
    """Memoises omniscient-optimal MLUs across experiments and sessions.

    Entries are keyed by ``(path-set fingerprint, demand hash, mask hash)``,
    so structurally identical path sets share entries and the cache survives
    the path-set object itself.  Values carry the same ``1e-12`` floor as
    :func:`omniscient_mlu` so they can be used as normalisers directly.

    With ``path`` set the cache is **disk-persistent**: existing entries are
    loaded on construction and new ones are appended to the file by
    :meth:`flush` (called automatically at interpreter exit, on
    ``with``-block exit, and by :meth:`close`).  The store is an append-only
    JSON-lines file whose first line is a versioned header; a file with a
    mismatched version or corrupt content is ignored with a warning (cold
    solves, never a crash) and rewritten wholesale on the next flush.

    The cache is also the one place that says *how* a miss is solved, so the
    training normalisers and the replay normalisers of a study -- both drawn
    from its engine's cache -- cannot end up on different solvers or widths.

    Args:
        max_entries: Oldest entries are evicted from *memory* beyond this
            size (the values are floats, so the default allows millions of
            cached solves).  Already-flushed entries stay on disk.
        path: Optional location of the persistent store.  Parent directories
            are created on flush.
        workers: Process-pool width for a batch of misses: a positive int
            (``1`` is sequential whatever the environment says), ``"auto"``
            for a CPU-count-derived width, or ``None`` to follow
            ``REPRO_LP_WORKERS`` at solve time (sequential when unset).
        backend: LP solver for the misses -- an
            :class:`~repro.solvers.lp_backend.LPBackend` instance or a
            registered name (``"scipy"``, ``"highs"``, ``"auto"``) -- or
            ``None`` to follow ``REPRO_LP_BACKEND`` at solve time.

    Raises:
        ValueError: ``max_entries`` or ``workers`` is out of range, or
            ``backend`` names no registered LP backend.
    """

    def __init__(
        self,
        max_entries: int = 1_000_000,
        path: str | os.PathLike | None = None,
        workers: int | str | None = None,
        backend: "LPBackend | str | None" = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.workers = resolve_lp_workers(workers, use_env=False)
        self.backend = resolve_lp_backend(backend) if backend is not None else None
        self._entries: OrderedDict[tuple[str, str, str], float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.path = Path(path).expanduser() if path is not None else None
        self.loaded = 0
        self._unflushed: list[tuple[tuple[str, str, str], float]] = []
        self._needs_rewrite = False
        if self.path is not None:
            self._load()
            # A weakref keeps short-lived caches collectable; a dead ref
            # makes the exit hook a no-op.
            atexit.register(_flush_cache_ref, weakref.ref(self))

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "OptimalMLUCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()

    def clear(self) -> None:
        """Drop every cached entry and reset the hit/miss counters.

        On a persistent cache the on-disk store is truncated to match at the
        next :meth:`flush`.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self._unflushed.clear()
        if self.path is not None:
            self._needs_rewrite = True

    # ------------------------------------------------------------------ #
    # Disk persistence
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        """Read the persistent store, tolerating missing/corrupt files."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:
            return
        except OSError as exc:
            warnings.warn(
                f"could not read optimal-MLU cache {self.path} ({exc}); "
                "starting cold",
                RuntimeWarning,
                stacklevel=4,
            )
            return
        if not lines:
            self._needs_rewrite = True
            return
        try:
            header = json.loads(lines[0])
            compatible = (
                isinstance(header, dict)
                and header.get("format") == CACHE_FILE_FORMAT
                and header.get("version") == CACHE_FILE_VERSION
            )
        except ValueError:
            compatible = False
        if not compatible:
            warnings.warn(
                f"ignoring optimal-MLU cache {self.path}: unrecognised or "
                f"version-mismatched header (expected {CACHE_FILE_FORMAT} "
                f"v{CACHE_FILE_VERSION}); starting cold",
                RuntimeWarning,
                stacklevel=4,
            )
            self._needs_rewrite = True
            return
        bad_lines = 0
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                fingerprint, demand_key, mask_key, value = json.loads(line)
                entry_key = (str(fingerprint), str(demand_key), str(mask_key))
                entry_value = float(value)
            except (ValueError, TypeError):
                # A partially written trailing line (crash mid-append) or
                # hand-edited junk: keep the good entries, compact the file
                # on the next flush.
                bad_lines += 1
                continue
            self._entries[entry_key] = entry_value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        self.loaded = len(self._entries)
        if bad_lines:
            warnings.warn(
                f"optimal-MLU cache {self.path}: skipped {bad_lines} corrupt "
                f"line(s), kept {self.loaded} entries",
                RuntimeWarning,
                stacklevel=4,
            )
            self._needs_rewrite = True

    @staticmethod
    def _entry_line(key: tuple[str, str, str], value: float) -> str:
        return json.dumps([key[0], key[1], key[2], value])

    def flush(self) -> None:
        """Write new entries to the persistent store (no-op when in-memory).

        Appends only what changed since the last flush; a missing, corrupt,
        or version-mismatched file is rewritten from scratch (atomically, via
        a temp file) so the store always ends up in the current format.
        """
        if self.path is None:
            return
        if self._needs_rewrite or not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            temp = self.path.with_name(self.path.name + ".tmp")
            with open(temp, "w", encoding="utf-8") as handle:
                header = {"format": CACHE_FILE_FORMAT, "version": CACHE_FILE_VERSION}
                handle.write(json.dumps(header) + "\n")
                for key, value in self._entries.items():
                    handle.write(self._entry_line(key, value) + "\n")
                # Entries solved since the last flush but already evicted
                # from memory must still be persisted (the append branch
                # would have written them).
                for key, value in self._unflushed:
                    if key not in self._entries:
                        handle.write(self._entry_line(key, value) + "\n")
            os.replace(temp, self.path)
            self._needs_rewrite = False
        elif self._unflushed:
            with open(self.path, "a", encoding="utf-8") as handle:
                for key, value in self._unflushed:
                    handle.write(self._entry_line(key, value) + "\n")
        self._unflushed.clear()

    def close(self) -> None:
        """Flush pending entries (kept for symmetry with file-like objects)."""
        self.flush()

    # ------------------------------------------------------------------ #
    # Cross-process transport (the study layer's cell pool)
    # ------------------------------------------------------------------ #
    def entries_snapshot(self) -> dict[tuple[str, str, str], float]:
        """A plain-dict copy of the in-memory entries.

        The snapshot is what a worker process is seeded with before running
        its experiment cells, so demands already solved by the parent are
        cache hits everywhere.
        """
        return dict(self._entries)

    def merge_entries(self, entries) -> int:
        """Insert entries solved elsewhere (e.g. by a pool worker).

        Existing keys keep their current values (the solver is
        deterministic, so they are equal anyway).  On a persistent cache the
        merged entries are appended at the next :meth:`flush` like locally
        solved ones.  Returns the number of new entries inserted.
        """
        added = 0
        for key, value in entries.items():
            fingerprint, demand_key, mask_key = key
            normalised = (str(fingerprint), str(demand_key), str(mask_key))
            if normalised not in self._entries:
                self._store(normalised, float(value))
                added += 1
        return added

    @staticmethod
    def _mask_key(path_mask: np.ndarray | None) -> str:
        if path_mask is None:
            return ""
        return hashlib.sha1(
            np.ascontiguousarray(path_mask, dtype=bool).tobytes()
        ).hexdigest()

    @staticmethod
    def _demand_key(demand_vector: np.ndarray) -> str:
        return hashlib.sha1(
            np.ascontiguousarray(demand_vector, dtype=float).tobytes()
        ).hexdigest()

    def _store(self, key: tuple[str, str, str], value: float) -> None:
        self._entries[key] = value
        if self.path is not None:
            self._unflushed.append((key, value))
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def optimal_mlu(
        self,
        path_set: PathSet,
        demand_vector: np.ndarray,
        path_mask: np.ndarray | None = None,
    ) -> float:
        """Cached :func:`omniscient_mlu` (optionally restricted to a path mask)."""
        return float(self.optimal_mlus(path_set, demand_vector, path_mask)[0])

    def optimal_mlus(
        self,
        path_set: PathSet,
        demands: np.ndarray,
        path_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cached omniscient MLUs for every row of a ``(T, pairs)`` array.

        Rows missing from the cache are solved (on the cache's ``backend``,
        over a process pool of its ``workers``) and inserted; cached rows are
        returned without re-solving.  The cache only keeps the optimal
        values, so the batch runs with ``mlu_only=True`` -- solution
        extraction and configuration construction are skipped entirely.
        """
        demands = np.ascontiguousarray(np.asarray(demands, dtype=float))
        if demands.ndim == 1:
            demands = demands[None, :]
        fingerprint = path_set.fingerprint
        mask_key = self._mask_key(path_mask)
        keys = [
            (fingerprint, self._demand_key(demand), mask_key) for demand in demands
        ]
        values = np.empty(len(demands))
        missing: dict[tuple[str, str, str], list[int]] = {}
        for i, key in enumerate(keys):
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                values[i] = cached
            else:
                # Duplicate demands within one batch are solved only once
                # (but each requested row still counts as a miss, keeping
                # hits + misses == rows requested).
                missing.setdefault(key, []).append(i)
                self.misses += 1
        if missing:
            rows = [indices[0] for indices in missing.values()]
            solved = solve_mlu_lp_batch(
                path_set,
                demands[rows],
                path_mask=path_mask,
                workers=self.workers,
                backend=self.backend,
                mlu_only=True,
            )
            for (key, indices), (_, mlu) in zip(missing.items(), solved):
                value = max(mlu, 1e-12)
                self._store(key, value)
                values[indices] = value
        return values


_SHARED_CACHE: OptimalMLUCache | None = None


def shared_cache() -> OptimalMLUCache:
    """The process-wide optimal-MLU cache.

    Training (:class:`~repro.core.trainer.Trainer`) and the default
    evaluation engine draw their omniscient normalisers from this one cache, so a
    demand matrix is never LP-solved twice in a process -- not even once by
    ``fit`` and once more by the subsequent replay.  Pass an explicit cache
    (or engine) to isolate workloads instead.
    """
    global _SHARED_CACHE
    if _SHARED_CACHE is None:
        _SHARED_CACHE = OptimalMLUCache()
    return _SHARED_CACHE


def predict_demand(history: np.ndarray, strategy: str = "last") -> np.ndarray:
    """Predict the next demand vector from a window of historical demands.

    Args:
        history: Array of shape ``(H, num_sd_pairs)``, oldest first.
        strategy: ``"last"`` (use the most recent matrix, the paper's choice
            for prediction-based TE), ``"mean"`` (window average), ``"ewma"``
            (exponentially weighted average), or ``"peak"`` (per-pair window
            maximum, used by the Desensitization scheme's anticipated matrix).
    """
    history = np.asarray(history, dtype=float)
    if history.ndim != 2 or history.shape[0] < 1:
        raise ValueError("history must be a (H, num_sd_pairs) array with H >= 1")
    if strategy == "last":
        return history[-1]
    if strategy == "mean":
        return history.mean(axis=0)
    if strategy == "ewma":
        weights = 0.5 ** np.arange(history.shape[0] - 1, -1, -1)
        weights = weights / weights.sum()
        return weights @ history
    if strategy == "peak":
        return history.max(axis=0)
    raise ValueError(f"unknown prediction strategy {strategy!r}")


class OmniscientTE(TEScheme):
    """Oracle TE: optimises for the demand that will actually arrive.

    The evaluation harness treats this scheme specially (it is given the true
    next demand instead of history); it exists mainly to normalise MLUs.
    """

    def __init__(self, path_set: PathSet) -> None:
        super().__init__(path_set, name="Omniscient")

    def configure(self, history: np.ndarray) -> TEConfiguration:
        # Replayed with oracle_demand=True: the last history row is the *true* demand.
        config, _ = solve_mlu_lp(self.path_set, np.asarray(history)[-1])
        return config


class PredictionBasedTE(TEScheme):
    """Demand-prediction-based TE (B4/SWAN style, baseline (4) of Section 5.1).

    Predicts the next demand from the recent history and optimises MLU for the
    prediction with no burst-handling mechanism.

    Args:
        path_set: Candidate paths.
        strategy: Prediction strategy passed to :func:`predict_demand`.
    """

    def __init__(self, path_set: PathSet, strategy: str = "last") -> None:
        super().__init__(path_set, name=f"Pred TE ({strategy})")
        self.strategy = strategy

    def configure(self, history: np.ndarray) -> TEConfiguration:
        prediction = predict_demand(np.asarray(history), self.strategy)
        config, _ = solve_mlu_lp(self.path_set, prediction)
        return config
