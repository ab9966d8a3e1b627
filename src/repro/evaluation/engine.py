"""Batched, cache-aware evaluation engine.

The seed evaluation replayed traces one interval at a time: one
``scheme.configure`` call, one MLU computation, and one fresh omniscient LP
solve per timestep.  This module amortises all three across the whole trace:

* **Windows** -- every history window of the test trace is materialised once
  as a ``(T, H, num_sd_pairs)`` stride-tricks view over the flattened demand
  array (:func:`build_history_windows`), shared with the trainer's window
  builder.
* **Configurations** -- the windows are handed to
  :meth:`TEScheme.configure_batch`, which the neural schemes implement as a
  single vectorized forward pass (two matrix multiplications instead of ``T``
  Python iterations).
* **MLUs** -- per-interval MLUs come from one batched
  :func:`max_link_utilization` call over the ``(T, num_paths)`` ratio matrix.
* **Normalisers** -- omniscient-optimal MLUs are served from an
  :class:`~repro.solvers.lp.OptimalMLUCache` shared across every experiment
  (main comparison, fluctuation, drift, failures), so a demand matrix is
  never LP-solved twice.  With a *persistent* cache (``OptimalMLUCache(path=
  ...)``) each batch of solved normalisers is written to disk as the cache
  stores it -- nothing is written at exit, and a killed process keeps what
  it solved -- so repeated benchmark sessions skip the cold LP pass
  entirely.
* **Streaming** -- :meth:`EvaluationEngine.evaluate_streaming` replays the
  same batched pipeline chunk by chunk from a window iterator
  (:func:`~repro.traffic.windows.iter_window_chunks`), holding only
  ``history_len + chunk_size`` demand rows at a time, so traces far larger
  than memory replay out-of-core (online replay in the spirit of Garg &
  Young's on-line end-to-end congestion control).

The engine produces results numerically equivalent to the per-timestep path
(the schemes are deterministic functions of their history window); the test
suite pins the equivalence to ``1e-9``, batch vs. streaming vs. sequential.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.evaluation.metrics import MLUStatistics, normalized_mlu_statistics
from repro.paths.path_set import PathSet
from repro.solvers.lp import NORMALIZER_FLOOR, OptimalMLUCache, shared_cache
from repro.te.failures import (
    reroute_ratios_around_failures,
    sample_failed_links,
)
from repro.te.mlu import max_link_utilization
from repro.te.scheme import TEScheme
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence
from repro.traffic.windows import build_history_windows, iter_window_chunks

__all__ = [
    "EvaluationResult",
    "EvaluationEngine",
    "default_engine",
    "build_history_windows",
    "iter_window_chunks",
]

#: Default number of evaluation intervals per streaming chunk.
DEFAULT_CHUNK_SIZE = 256

@dataclass
class EvaluationResult:
    """Outcome of replaying one scheme over a test trace.

    Attributes:
        scheme_name: Name of the evaluated scheme.
        normalized_mlus: Per-interval MLU divided by the omniscient optimum.
        raw_mlus: Per-interval absolute MLU.
        optimal_mlus: Per-interval omniscient-optimal MLU.
    """

    scheme_name: str
    normalized_mlus: np.ndarray
    raw_mlus: np.ndarray
    optimal_mlus: np.ndarray

    @property
    def statistics(self) -> MLUStatistics:
        """Summary statistics of the normalised-MLU series."""
        return normalized_mlu_statistics(self.normalized_mlus)


class EvaluationEngine:
    """Replays TE schemes over traces with batching and LP-result caching.

    One engine instance should be shared across experiments: its
    :class:`OptimalMLUCache` is what turns the repeated replays of the
    fluctuation / drift / failure protocols from ``O(T)`` LP solves each into
    cache hits, and its replay memo (:meth:`replay_memo`) is what lets a
    study re-run on it skip the replays themselves.  The memo is keyed on
    the trained scheme *object* and held weakly: a scheme's entries live as
    long as the scheme does, on this engine only (a fresh engine, even on
    the same cache, replays cold).  A scheme is taken to be fixed once
    trained.

    Args:
        cache: Optimal-MLU cache to use (a fresh in-memory one by default;
            pass an ``OptimalMLUCache(path=...)`` to persist LP results
            across benchmark sessions: it writes each solved batch when it
            stores it, never at exit).  The cache also names the pool
            width its misses run on (``OptimalMLUCache(workers=)``): the
            engine has no LP knob of its own.  The neural schemes' forward
            passes are float64 numpy.
    """

    def __init__(self, cache: OptimalMLUCache | None = None) -> None:
        self.cache = cache if cache is not None else OptimalMLUCache()
        self._replays: weakref.WeakKeyDictionary[TEScheme, dict] = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # Replay memo
    # ------------------------------------------------------------------ #
    def replay_memo(self, scheme: TEScheme) -> dict:
        """The memo of ``scheme``'s replays on this engine (created empty).

        The engine only holds it: :class:`~repro.study.Study` decides the
        keys and entries (each a pure function of the trained scheme and a
        trace).  The dict goes when ``scheme`` is garbage-collected.
        """
        return self._replays.setdefault(scheme, {})

    def memoised_replays(self) -> int:
        """Number of memo entries held, over every live scheme."""
        # ``data`` is copied in one C call, so another thread may count
        # while a study adds entries.
        return sum(len(memo) for memo in list(self._replays.data.values()))

    # ------------------------------------------------------------------ #
    # Normalisers
    # ------------------------------------------------------------------ #
    def optimal_mlus(
        self,
        path_set: PathSet,
        demands: np.ndarray,
        path_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cached omniscient-optimal MLU for every demand vector."""
        return self.cache.optimal_mlus(path_set, demands, path_mask=path_mask)

    # ------------------------------------------------------------------ #
    # Core replay
    # ------------------------------------------------------------------ #
    def evaluate_scheme(
        self,
        scheme: TEScheme,
        test_sequence: TrafficMatrixSequence,
        history_len: int,
        optimal_mlus: np.ndarray | None = None,
        oracle_demand: bool = False,
    ) -> EvaluationResult:
        """Replay a scheme over a test trace in one batched pass.

        The one-chunk case of :meth:`evaluate_streaming`, which holds the
        replay pipeline.

        Args:
            scheme: A scheme whose ``precompute`` has already been called.
            test_sequence: The test portion of the trace.
            history_len: Number of recent demand vectors per window.
            optimal_mlus: Optional pre-computed omniscient MLUs (one per
                interval of the *full* test sequence; the first
                ``history_len`` entries are never read) -- when omitted they
                come from the engine's cache.
            oracle_demand: If True the scheme is handed the *true* next
                demand as the most recent history row (the Omniscient
                benchmark).

        Returns:
            Per-interval results for intervals ``history_len .. len(test)-1``.
        """
        # ``max``: a trace with no interval to evaluate gets the window
        # builder's error, not one about a chunk size the caller never set.
        return self.evaluate_streaming(
            scheme,
            test_sequence,
            history_len,
            chunk_size=max(1, len(test_sequence) - history_len),
            optimal_mlus=optimal_mlus,
            oracle_demand=oracle_demand,
        )

    @staticmethod
    def _demand_row_stream(
        source: TrafficMatrixSequence | np.ndarray | Iterable,
    ) -> np.ndarray | Iterable[np.ndarray]:
        """Normalise a demand source into what :func:`iter_window_chunks` eats.

        An in-memory trace goes in whole: a :class:`TrafficMatrixSequence`
        as its stored ``flat_demands()``, a 2-D array as is (chunks are then
        views; no per-interval object is built).  Anything else is a real
        stream -- an iterable of :class:`TrafficMatrix` / flat vectors --
        and becomes a lazy row generator, flattening one matrix at a time.
        """
        if isinstance(source, TrafficMatrixSequence):
            return source.flat_demands()
        if isinstance(source, np.ndarray) and source.ndim == 2:
            return source
        return (
            item.flat() if isinstance(item, TrafficMatrix) else np.asarray(item, dtype=float)
            for item in source
        )

    def evaluate_streaming(
        self,
        scheme: TEScheme,
        demand_stream: TrafficMatrixSequence | np.ndarray | Iterable,
        history_len: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        optimal_mlus: np.ndarray | None = None,
        oracle_demand: bool = False,
    ) -> EvaluationResult:
        """Replay a scheme over an arbitrarily long trace in O(chunk) memory.

        The replay pipeline -- windows, one ``configure_batch`` forward pass,
        one batched MLU call, cache-served normalisers -- runs once per chunk
        of ``chunk_size`` evaluation intervals, and only ``history_len +
        chunk_size`` demand rows are ever buffered when the trace arrives as
        a stream.  Results do not depend on ``chunk_size`` (chunk boundaries
        fall *between* evaluation intervals; every window still sees its full
        history because each chunk carries the preceding ``history_len``
        rows); :meth:`evaluate_scheme` is the call with one chunk.

        Args:
            scheme: A scheme whose ``precompute`` has already been called.
            demand_stream: The test trace: a :class:`TrafficMatrixSequence`,
                a ``(T, num_sd_pairs)`` array, or any iterable of per-
                interval demand vectors / :class:`TrafficMatrix` -- e.g. rows
                decoded lazily from a month-long on-disk trace.
            history_len: Number of recent demand vectors per window.
            chunk_size: Evaluation intervals replayed per chunk.
            optimal_mlus: Optional pre-computed omniscient MLUs, indexed like
                :meth:`evaluate_scheme`'s (one per interval of the full
                trace, the first ``history_len`` entries unused).
            oracle_demand: If True the scheme sees the true next demand as
                the most recent history row (the Omniscient benchmark).

        Returns:
            Per-interval results for intervals ``history_len .. len(trace)-1``.
        """
        rows = self._demand_row_stream(demand_stream)
        raw_parts: list[np.ndarray] = []
        optimal_parts: list[np.ndarray] = []
        precomputed = (
            np.asarray(optimal_mlus, dtype=float) if optimal_mlus is not None else None
        )
        for windows, targets, start in iter_window_chunks(
            rows, history_len, chunk_size, oracle_demand=oracle_demand
        ):
            ratios = scheme.configure_batch(windows)
            raw_parts.append(
                np.atleast_1d(
                    np.asarray(
                        max_link_utilization(scheme.path_set, ratios, targets),
                        dtype=float,
                    )
                )
            )
            if precomputed is not None:
                lo = history_len + start
                optimal_parts.append(precomputed[lo : lo + len(targets)])
            else:
                optimal_parts.append(self.optimal_mlus(scheme.path_set, targets))
        raw = np.concatenate(raw_parts)
        optimal = np.concatenate(optimal_parts).astype(float)
        normalized = raw / np.maximum(optimal, NORMALIZER_FLOOR)
        return EvaluationResult(
            scheme_name=scheme.name,
            normalized_mlus=normalized,
            raw_mlus=raw,
            optimal_mlus=optimal,
        )

    # ------------------------------------------------------------------ #
    # Failure replay (Section 4.5; the other Section 5 protocols are
    # compositions of evaluate_scheme and live in repro.study.Study)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _require_shared_path_set(schemes: list[TEScheme]) -> PathSet:
        """The one path set shared by all schemes (clear error otherwise)."""
        if not schemes:
            raise ValueError("at least one scheme is required")
        path_set = schemes[0].path_set
        for position, scheme in enumerate(schemes[1:], start=1):
            other = scheme.path_set
            if other is not path_set and other.fingerprint != path_set.fingerprint:
                raise ValueError(
                    "all schemes under comparison must share one PathSet so "
                    f"their MLUs are normalised consistently; scheme "
                    f"{scheme.name!r} (position {position}) uses a different "
                    f"path set ({other!r}) than {schemes[0].name!r} "
                    f"({path_set!r})"
                )
        return path_set

    def failure_experiment(
        self,
        schemes: list[TEScheme],
        test_sequence: TrafficMatrixSequence,
        history_len: int,
        num_failures: int,
        num_trials: int = 10,
        fault_aware_names: tuple[str, ...] = ("FA Des TE",),
        seed: int = 0,
    ) -> dict[str, np.ndarray]:
        """Link-failure experiment (Figures 7, 14 and 15), batched per trial.

        The seed implementation solved one oracle LP and called every
        scheme's ``configure`` inside a trials x timesteps x schemes triple
        loop.  Here each trial runs one batched oracle pass (cached across
        repeated failure patterns), schemes whose configuration is
        failure-independent are batch-configured once for *all* trials, and
        rerouting is a vectorized array operation.  Schemes are assumed to be
        deterministic functions of their history window (all bundled schemes
        are).

        Schemes named in ``fault_aware_names`` are told each trial's failed
        links through ``set_failures`` and their output is used as is; every
        other scheme's pre-failure configuration is rerouted around the
        failures (Section 4.5).  MLUs are normalised by an oracle that knows
        both the demand and the failures, so every value is ``>= 1``.

        Returns:
            Mapping from scheme name to an array of normalised MLUs (one
            entry per trial x evaluated interval).

        Raises:
            ValueError: If the schemes do not share one path set, or a scheme
                named in ``fault_aware_names`` has no ``set_failures`` -- it
                would skip rerouting without ever learning of the failures
                and keep sending traffic over dead links.
        """
        path_set = self._require_shared_path_set(schemes)
        fault_aware = [scheme for scheme in schemes if scheme.name in fault_aware_names]
        for scheme in fault_aware:
            if not hasattr(scheme, "set_failures"):
                raise ValueError(
                    f"scheme {scheme.name!r} is listed in fault_aware_names but "
                    "has no set_failures(); only schemes that can be told the "
                    "failed links may skip rerouting"
                )
        topology = path_set.topology
        flat = test_sequence.flat_demands()
        windows, targets = build_history_windows(flat, history_len)
        rng = np.random.default_rng(seed)
        results: dict[str, list[np.ndarray]] = {scheme.name: [] for scheme in schemes}
        static_ratios: dict[str, np.ndarray] = {}

        for _ in range(num_trials):
            failed = sample_failed_links(topology, num_failures, rng)
            working_mask = path_set.restrict_to_working_paths(failed)
            for scheme in fault_aware:
                scheme.set_failures(failed)
            oracle = self.optimal_mlus(path_set, targets, path_mask=working_mask)
            oracle = np.maximum(oracle, NORMALIZER_FLOOR)
            for scheme in schemes:
                if scheme.name in fault_aware_names:
                    # Fault-aware schemes see the failures, so their batch
                    # must be recomputed per trial; their output needs no
                    # rerouting.
                    rerouted = scheme.configure_batch(windows)
                else:
                    ratios = static_ratios.get(scheme.name)
                    if ratios is None:
                        ratios = scheme.configure_batch(windows)
                        static_ratios[scheme.name] = ratios
                    rerouted = reroute_ratios_around_failures(
                        path_set, ratios, working_mask
                    )
                mlus = np.atleast_1d(
                    np.asarray(
                        max_link_utilization(path_set, rerouted, targets), dtype=float
                    )
                )
                results[scheme.name].append(mlus / oracle)
        return {
            name: np.concatenate(values) if values else np.array([])
            for name, values in results.items()
        }


#: Process-wide engine, built on the process-wide LP-result cache -- the same
#: cache the trainers populate, so train + eval never solve one LP twice.
_DEFAULT_ENGINE = EvaluationEngine(cache=shared_cache())


def default_engine() -> EvaluationEngine:
    """The process-wide engine (and its shared optimal-MLU cache)."""
    return _DEFAULT_ENGINE
