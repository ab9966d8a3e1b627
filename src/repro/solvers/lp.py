"""Linear-programming MLU minimisation (Appendix B, Equation 9).

Given a demand matrix and a candidate path set, the optimal split ratios that
minimise the maximum link utilisation are the solution of the LP:

    minimise    t
    subject to  sum_{p in P_sd} r_p = 1                      for every SD pair
                sum_{p: e in p} D_{sd(p)} r_p <= t * c(e)    for every edge e
                r_p >= 0

This module provides the raw solver (:func:`solve_mlu_lp`), the batch of
optimal values behind every normaliser (:func:`solve_mlu_lp_batch`, with
optional fan-out over :mod:`repro.pool`), the omniscient benchmark used to
normalise every MLU the paper reports (:func:`omniscient_mlu`), a cache for
those normalisers that can persist to disk, writing each newly solved batch
as it stores it (:class:`OptimalMLUCache`, with a process-wide instance via
:func:`shared_cache`), and the two simplest schemes built directly on the
LP: :class:`OmniscientTE` (perfect knowledge of the next demand) and
:class:`PredictionBasedTE` (solve for the most recent demand).

The LP's constraint matrices depend on the demand only through a diagonal
rescale of the path-to-edge incidence, so everything demand-independent
(sparsity pattern, equality rows, capacity column, bounds template) is
precomputed once per :class:`PathSet` in :class:`MLUConstraintStructure` and
shared by every subsequent solve.

One fixed rule picks the solver (see :mod:`repro.solvers.lp_backend`, which
only this module imports), and both solvers run on scipy's vendored HiGHS
core, whatever else is installed: the batch's normalisers on a persistent
model per (path set, failure mask) key, started from each pair's first usable
path; :func:`solve_mlu_lp`'s vertices on the LP ``linprog`` would hand that
core, stacked here once per path set, keeping ``linprog``'s vertex bit for
bit.  Every entry point rejects a demand with a NaN, infinite or negative
entry.
"""

from __future__ import annotations

import hashlib
import os
import warnings
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.paths.path_set import PathSet
from repro.pool import fan_out, resolve_workers
from repro.solvers.lp_backend import resolve_lp_backend
from repro.store import JsonlStore
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
    "NORMALIZER_FLOOR",
    "count_lp_solves",
    "LPSolveTally",
    "OmniscientTE",
    "PredictionBasedTE",
]


class LPSolveError(RuntimeError):
    """Raised when the LP solver fails to find an optimal solution."""


#: Floor on every omniscient normaliser, so a zero-demand interval never
#: divides by zero.
NORMALIZER_FLOOR = 1e-12

#: Raw LP solve counter of this process (pool workers count in their own);
#: read it through :func:`count_lp_solves`.
_LP_SOLVE_CALLS = 0


class LPSolveTally:
    """A scoped view of the LP solve counter (see :func:`count_lp_solves`)."""

    def __init__(self) -> None:
        self._start = _LP_SOLVE_CALLS

    @property
    def count(self) -> int:
        """Raw LP solves since this tally was started."""
        return _LP_SOLVE_CALLS - self._start


class count_lp_solves:
    """Context manager scoping the process-global LP solve counter.

    Yields an :class:`LPSolveTally` whose ``count`` is relative to scope
    entry, so concurrent/ordered test runs (pytest-xdist workers, CI jobs
    sharing a worker) can assert exact solve counts without caring what ran
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

        # The LP as linprog hands it to HiGHS, for the vertex solves that call
        # scipy's HiGHS core directly: rows [A_ub; A_eq] stacked in one CSC
        # matrix (columns sorted by row), lhs <= A x <= rhs.  Per demand only
        # the A_ub values move; stacked_data() reads each stored entry's
        # factor from [demand..., 1.0] (1.0 for the capacity column and the
        # equality rows), forming the products a_ub() forms.
        stacked = sparse.vstack([template, self.a_eq]).tocsc()
        stacked.sort_indices()
        self.stacked_indptr = stacked.indptr
        self.stacked_indices = stacked.indices
        self._stacked_base = stacked.data
        column = np.repeat(np.arange(num_paths + 1), np.diff(stacked.indptr))
        scaled = (stacked.indices < num_edges) & (column < num_paths)
        self._stacked_factor = np.full(stacked.nnz, num_pairs)
        self._stacked_factor[scaled] = self._path_sd_index[column[scaled]]
        self.stacked_row_lower = np.concatenate([np.full(num_edges, -np.inf), self.b_eq])
        self.stacked_row_upper = np.concatenate([self.b_ub, self.b_eq])

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

    def stacked_data(self, demand_vector: np.ndarray) -> np.ndarray:
        """Values of the stacked ``[A_ub; A_eq]`` for one demand, in
        :attr:`stacked_indptr` / :attr:`stacked_indices` order."""
        factors = np.append(np.asarray(demand_vector, dtype=float), 1.0)
        return self._stacked_base * factors[self._stacked_factor]


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
    """The demand as floats; a wrong length or a NaN/inf/negative entry is a ValueError."""
    demand = np.asarray(demand_vector, dtype=float)
    if demand.shape != (num_sd_pairs,):
        raise ValueError(
            f"demand vector must have {num_sd_pairs} entries, got {demand.shape}"
        )
    if not np.isfinite(demand).all():
        raise ValueError("demand vector must be finite (it has a NaN or inf entry)")
    if (demand < 0).any():
        raise ValueError("demand vector must be non-negative")
    return demand


def solve_mlu_lp(
    path_set: PathSet,
    demand_vector: np.ndarray,
    sensitivity_caps: np.ndarray | None = None,
    path_mask: np.ndarray | None = None,
) -> tuple[TEConfiguration, float]:
    """Solve the MLU-minimisation LP for a single demand vector.

    The demand-independent constraint structure is precomputed once per
    path set (see :class:`MLUConstraintStructure`), so repeated solves over
    the same path set only pay for the diagonal rescale and the solver run.
    The solve returns a vertex, so it runs on ``linprog``'s LP and options in
    scipy's own HiGHS core, called directly, and returns ``linprog``'s vertex
    bit for bit.

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

    Returns:
        ``(configuration, optimal MLU)``.

    Raises:
        ValueError: If the demand has the wrong length or a NaN, inf or
            negative entry.
        LPSolveError: If the LP is infeasible or the solver fails.
    """
    global _LP_SOLVE_CALLS
    structure = constraint_structure(path_set)
    demand = _checked_demand(demand_vector, structure.num_sd_pairs)
    _LP_SOLVE_CALLS += 1
    upper = _resolved_upper_bounds(path_set, structure, sensitivity_caps, path_mask)
    ratios, mlu = resolve_lp_backend().solve(path_set, demand, upper)
    return TEConfiguration(path_set, ratios, normalize=True), mlu


def _solve_batch_chunk(args) -> np.ndarray:
    """Process-pool job: the optimal MLUs of one chunk of demands.

    Also how the parent solves a chunk the pool hands back: the sequential
    batch, in the running process, so every solve after the first reuses the
    one persistent model built for the whole chunk.
    """
    path_set, demands, path_mask = args
    return solve_mlu_lp_batch(path_set, demands, path_mask)


def solve_mlu_lp_batch(
    path_set: PathSet,
    demands: np.ndarray,
    path_mask: np.ndarray | None = None,
    workers: int | str | None = None,
) -> np.ndarray:
    """Optimal MLU of every row of a ``(T, num_sd_pairs)`` demand array.

    The normaliser batch: value-only solves on the persistent HiGHS model
    (see :mod:`repro.solvers.lp_backend`); :func:`solve_mlu_lp` is the one
    entry point that returns a configuration.  The solves are independent,
    so with ``workers`` set (an int, or ``"auto"`` for an
    ``os.cpu_count()``-derived width) they fan out over a long-lived process
    pool shared by all batch calls of that width (each worker builds the
    constraint structure and one persistent model once per chunk, then
    reuses them).  With no width
    configured the solves run sequentially in-process on one model.  Chunks
    the pool cannot run -- the path set fails to pickle, process spawning is
    forbidden by the sandbox, or the pool dies -- are solved in-process
    instead (see :func:`repro.pool.fan_out`: the fallback is counted in
    :func:`repro.pool.fallbacks` and warned about once per process, and the
    next call tries a fresh pool).

    Args:
        path_mask: Optional boolean mask of usable paths, as for
            :func:`solve_mlu_lp`.

    Returns:
        A float array with one optimal MLU per demand row.

    Raises:
        ValueError: If a row has the wrong length or a NaN, inf or negative
            entry (checked before any solve, so nothing is solved or cached).
    """
    demands = np.asarray(demands, dtype=float)
    if demands.ndim == 1:
        demands = demands[None, :]
    for demand in demands:
        _checked_demand(demand, path_set.num_sd_pairs)
    workers = resolve_workers(workers)
    if workers is not None and workers > 1 and len(demands) > 1:
        jobs = [
            (path_set, chunk, path_mask)
            for chunk in np.array_split(demands, min(workers, len(demands)))
        ]
        return np.concatenate(fan_out(_solve_batch_chunk, jobs, workers))
    global _LP_SOLVE_CALLS
    solver = resolve_lp_backend()
    structure = constraint_structure(path_set)
    upper = _resolved_upper_bounds(path_set, structure, None, path_mask)
    mlus = np.empty(len(demands))
    for row, demand in enumerate(demands):
        _LP_SOLVE_CALLS += 1
        mlus[row] = solver.solve_mlu(path_set, demand, upper)
    return mlus


def omniscient_mlu(path_set: PathSet, demand_vector: np.ndarray) -> float:
    """Optimal MLU with perfect knowledge of the demand (the paper's oracle).

    Every MLU reported by the paper's figures is normalised by this value.
    Returns :data:`NORMALIZER_FLOOR` instead of exactly zero for all-zero
    demands so normalisation never divides by zero.
    """
    [mlu] = solve_mlu_lp_batch(path_set, demand_vector).tolist()
    return max(mlu, NORMALIZER_FLOOR)


#: On-disk format marker of the persistent cache (see :class:`OptimalMLUCache`).
CACHE_FILE_FORMAT = "repro-optimal-mlu-cache"
#: Bump to invalidate every existing cache file (e.g. if the LP, the floor,
#: or the key derivation changes in a way that alters cached values).
CACHE_FILE_VERSION = 1
#: Entries an :class:`OptimalMLUCache` keeps in memory (the values are
#: floats, so millions of cached solves); the oldest go first.
MAX_CACHE_ENTRIES = 1_000_000


class _CacheFile(JsonlStore):
    """The cache's file: one ``[fingerprint, demand, mask, value]`` line per entry."""

    _format = CACHE_FILE_FORMAT
    _version = CACHE_FILE_VERSION
    _kind = "optimal-MLU cache"
    _torn_tail_hint = "its normaliser will be solved again"

    def _encode(self, entry: tuple[tuple[str, str, str], float]) -> list:
        return [*entry[0], entry[1]]

    def _decode(self, payload: list) -> tuple[tuple[str, str, str], float]:
        fingerprint, demand_key, mask_key, value = payload
        return (str(fingerprint), str(demand_key), str(mask_key)), float(value)


class OptimalMLUCache:
    """Memoises omniscient-optimal MLUs across experiments and sessions.

    Entries are keyed by ``(path-set fingerprint, demand hash, mask hash)``,
    so structurally identical path sets share entries and the cache survives
    the path-set object itself.  Values carry the same
    :data:`NORMALIZER_FLOOR` as :func:`omniscient_mlu` so they can be used as
    normalisers directly.  Beyond :data:`MAX_CACHE_ENTRIES` the oldest
    entries are evicted from memory (a persistent cache keeps them on disk).

    With ``path`` set the cache is **disk-persistent**: existing entries are
    loaded on construction, and every batch of new entries is written when
    it is stored -- the misses one :meth:`optimal_mlus` call solved --
    before the call returns.  There is nothing left to write at exit, so a
    SIGKILLed process loses at most the batch it was solving.  The file is a :class:`repro.store.JsonlStore`,
    written like the study checkpoints: each batch is one append (one write
    and one file fsync), and a torn trailing entry is dropped with a warning
    and compacted away by the next append.  A missing file, or one that
    cannot be loaded at all -- foreign or mismatched header, junk mid-file,
    unreadable; ignored with a warning, so cold solves and never a crash --
    is rewritten whole, atomically, by the first write.  Every entry is
    recomputable.  :meth:`close` (or ``with``-exit) only releases the held
    append descriptor.

    The cache is also the one place that says over how many processes a
    miss is solved, so the training normalisers and the replay normalisers
    of a study -- both drawn from its engine's cache -- share one width.
    The key names no solver because there is one: every miss is solved by
    :func:`solve_mlu_lp_batch` (see :mod:`repro.solvers.lp_backend`).

    Args:
        path: Optional location of the persistent store.  ``~`` is
            expanded; parent directories are created by the first write.
        workers: Process-pool width for a batch of misses: a positive int,
            ``"auto"`` for a CPU-count-derived width, or ``None`` (the
            default) to solve them sequentially in-process; ``1`` is
            sequential too.

    Raises:
        ValueError: ``workers`` is out of range.
    """

    def __init__(
        self,
        *,
        path: str | os.PathLike | None = None,
        workers: int | str | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self._entries: OrderedDict[tuple[str, str, str], float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.path = Path(path).expanduser() if path is not None else None
        self.loaded = 0
        # Set when the file could not be loaded: the first write replaces it.
        self._needs_rewrite = False
        if self.path is not None:
            self._file = _CacheFile(self.path)
            self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "OptimalMLUCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Disk persistence
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        """Read the persistent store; an unusable one means starting cold."""
        try:
            entries = self._file.load()
        except FileNotFoundError:
            return
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"{exc}; the cache starts cold and is rewritten by its first write",
                RuntimeWarning,
                stacklevel=3,
            )
            self._needs_rewrite = True
            return
        for key, value in entries:
            self._entries[key] = value
            if len(self._entries) > MAX_CACHE_ENTRIES:
                self._entries.popitem(last=False)
        self.loaded = len(self._entries)

    def close(self) -> None:
        """Release the file's append descriptor (every entry is already written)."""
        if self.path is not None:
            self._file.close()

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

    def _store(self, entries: list[tuple[tuple[str, str, str], float]]) -> None:
        """Insert new entries; a persistent cache writes them first, as one batch."""
        if self.path is not None and entries:
            if self._needs_rewrite or not self._file.exists():
                self._file.rewrite([*self._entries.items(), *entries])
                self._needs_rewrite = False
            else:
                self._file.extend(entries)
        for key, value in entries:
            self._entries[key] = value
            if len(self._entries) > MAX_CACHE_ENTRIES:
                self._entries.popitem(last=False)

    def optimal_mlus(
        self,
        path_set: PathSet,
        demands: np.ndarray,
        path_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cached omniscient MLUs for every row of a ``(T, pairs)`` array.

        Rows missing from the cache are solved (over a process pool of the
        cache's ``workers``) and stored -- on a persistent cache, written as
        one batch before the call returns; cached rows are returned without
        re-solving.
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
            solved = np.maximum(
                solve_mlu_lp_batch(path_set, demands[rows], path_mask, self.workers),
                NORMALIZER_FLOOR,
            ).tolist()
            self._store(list(zip(missing, solved)))
            for indices, value in zip(missing.values(), solved):
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


def _demand_history(history: np.ndarray) -> np.ndarray:
    """``history`` as a float ``(H, num_sd_pairs)`` array with ``H >= 1``."""
    history = np.asarray(history, dtype=float)
    if history.ndim != 2 or history.shape[0] < 1:
        raise ValueError("history must be a (H, num_sd_pairs) array with H >= 1")
    return history


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

    Predicts the next demand to be the most recent one and optimises MLU for
    it with no burst-handling mechanism.
    """

    def __init__(self, path_set: PathSet) -> None:
        super().__init__(path_set, name="Pred TE (last)")

    def configure(self, history: np.ndarray) -> TEConfiguration:
        config, _ = solve_mlu_lp(self.path_set, _demand_history(history)[-1])
        return config
