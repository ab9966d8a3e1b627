"""The :class:`Study` orchestrator: expand a spec grid, dedup, execute.

A study turns a declarative spec (see :mod:`repro.study.spec`) into a
:class:`~repro.study.results.ResultSet` by running every cell through the
batched/streaming :class:`~repro.evaluation.engine.EvaluationEngine`.  The
orchestration layer's whole job is deduplicating the shared work of a grid:

* **Scenarios** are built once per distinct scenario reference (name + seed +
  trace length, or canonical inline config) and shared by every cell.
* **Schemes** are trained once per distinct scheme spec per scenario (and per
  drift training segment); the scheme axis of a grid never retrains.
* **Baseline replays** (the unperturbed run that fluctuation / drift declines
  are measured against) run once per scenario x scheme x eval knobs.
* **LP normalisers** are served by the engine's
  :class:`~repro.solvers.lp.OptimalMLUCache` -- one optimal-MLU pass per
  distinct demand matrix across the *whole* grid, so adding schemes or
  re-running a study never repeats an LP solve (assert it with
  :func:`~repro.solvers.lp.count_lp_solves`).  Cold solves run on the
  solver, and over the pool width, that cache was built with.
* **Cell groups** under ``cell_workers`` fan out through
  :func:`repro.pool.fan_out`, the same pool and fallback path as the LP
  batches; a group the pool hands back runs in-process.

Pass ``scheme_cache`` / ``scenario_cache`` dicts to share the first two
dedup layers across studies in one process (the benchmark harness does).
"""

from __future__ import annotations

import json
import pickle
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.datasets import registry as datasets_registry
from repro.datasets.registry import Scenario
from repro.evaluation.engine import EvaluationEngine, EvaluationResult, default_engine
from repro.evaluation.metrics import MLUStatistics, normalized_mlu_statistics
from repro.paths.path_set import PathSet
from repro.pool import HANDED_BACK, fan_out, resolve_workers
from repro.solvers.lp import OptimalMLUCache
from repro.study.results import ResultSet, StudyCheckpoint, StudyResult
from repro.study.warehouse import ResultWarehouse
from repro.study.spec import (
    ExperimentSpec,
    InlineScenario,
    build_scheme,
    canonical_json,
    expand_spec,
    scenario_cache_key,
)
from repro.te.scheme import TEScheme
from repro.traffic.matrix import TrafficMatrixSequence
from repro.traffic.perturb import gaussian_fluctuation, reverse_rank_fluctuation

__all__ = ["Study", "StudyPlan", "StudyCancelled"]


class StudyCancelled(RuntimeError):
    """Execution stopped because ``should_stop`` asked it to.

    Raised by :meth:`Study.execute` *between* cells, after the finished
    cells were checkpointed/warehoused -- so a cancelled checkpointed run is
    exactly an interrupted one: :meth:`Study.resume` (or re-submitting the
    job to a study server) completes the remainder with zero repeat work.

    Attributes:
        completed: Number of cells finished when the stop took effect
            (including cells loaded from a resumed checkpoint).
        total: Total number of cells in the study.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"study cancelled after {completed}/{total} cell(s); the finished "
            "cells are checkpointed and the study is resumable"
        )
        self.completed = completed
        self.total = total


@dataclass
class StudyPlan:
    """What :meth:`Study.execute` will run, and with which resources.

    Built by :meth:`Study.plan` -- the plan-build half of the old monolithic
    ``Study.run`` loop.  A plan is inert data: nothing has been trained,
    solved, or written when it exists (checkpoint/warehouse headers are
    created by :meth:`Study.execute`), so a scheduler -- the study server's
    job queue, a notebook, a test -- can inspect what is left to do, decide
    when to run it, and own the execution loop via ``on_cell`` /
    ``should_stop`` callbacks.

    Attributes:
        pending: ``(index, cell)`` pairs still to run, in spec order.
        completed: Records already finished (loaded from a resumed
            checkpoint), keyed by cell index.
        engine: The resolved evaluation engine every cell runs through.
        cell_workers: Resolved cell process-pool width (``None`` =
            sequential).
        checkpoint: The checkpoint store finished cells append to (or
            ``None``).
        warehouse: The results warehouse finished cells append to (or
            ``None``).
    """

    pending: list[tuple[int, "ExperimentSpec"]]
    completed: dict[int, StudyResult]
    engine: EvaluationEngine
    cell_workers: int | None
    checkpoint: StudyCheckpoint | None
    warehouse: ResultWarehouse | None

    @property
    def total(self) -> int:
        """Total number of cells in the study (pending + completed)."""
        return len(self.pending) + len(self.completed)

    @property
    def remaining(self) -> int:
        """Number of cells that still need to run."""
        return len(self.pending)


def _run_cells_job(payload: tuple) -> tuple:
    """Process-pool worker: run a group of cells sharing one scheme training.

    The payload carries the (declarative, hence picklable) cells, a
    snapshot of the parent's LP-cache entries, and any schemes the parent
    had already trained for this group.  The return
    value carries the finished records plus everything the parent merges
    back: LP-cache entries solved here and schemes trained here (both keyed
    exactly as the parent keys them, so the merge is a dict update).

    A failing *cell* is returned as data (the fourth element) rather than
    raised, so the group's already-finished records still reach the parent
    -- and its checkpoint -- before the error propagates, exactly like a
    sequential run that dies mid-grid.
    """
    cells, cache_snapshot, pretrained = payload
    # Width 1 (sequential): each cell worker is already one process of the
    # cell pool, and letting REPRO_LP_WORKERS leak in here would nest an LP
    # pool inside every cell worker.
    cache = OptimalMLUCache(workers=1)
    cache.merge_entries(cache_snapshot)
    engine = EvaluationEngine(cache=cache)
    study = Study(scheme_cache=dict(pretrained))
    finished = []
    error: Exception | None = None
    error_index: int | None = None
    for index, cell in cells:
        try:
            record = study._run_cell(cell, engine)
        except Exception as exc:
            try:
                pickle.dumps(exc)
                error = exc
            except Exception:
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
            error_index = index
            break
        record.result = None  # the live EvaluationResult stays in the worker
        finished.append((index, record))
    new_entries = {
        key: value
        for key, value in cache.entries_snapshot().items()
        if key not in cache_snapshot
    }
    trained = {}
    for key, scheme in study._scheme_cache.items():
        if key in pretrained:
            continue
        try:
            pickle.dumps(scheme)
        except Exception:  # exotic registered schemes just stay worker-local
            continue
        trained[key] = scheme
    return finished, new_entries, trained, error, error_index


@dataclass
class _ScenarioContext:
    """A scenario resolved into the pieces cell execution needs."""

    key: str
    name: str
    paths: PathSet | None
    train: TrafficMatrixSequence | None
    test: TrafficMatrixSequence | None
    traffic: TrafficMatrixSequence | None
    history_len: int | None
    _pair_std: np.ndarray | None = None

    def pair_std(self) -> np.ndarray:
        """The training split's per-pair std (computed once per scenario).

        Raises:
            ValueError: If the scenario has no training split -- a spec-level
                error naming the scenario, instead of the bare
                ``AttributeError: 'NoneType' object has no attribute
                'pair_std'`` a train-less scenario used to surface.
        """
        if self.train is None:
            raise ValueError(
                f"scenario {self.name!r} provides no training split, but a "
                "fluctuation cell needs its per-pair std as the perturbation "
                "reference; use a scenario with a training split or drop the "
                "fluctuation perturbation for this scenario"
            )
        if self._pair_std is None:
            self._pair_std = self.train.pair_std()
        return self._pair_std


class Study:
    """Declarative experiment orchestrator.

    Args:
        spec: A study spec mapping (sweep axes expand into the grid), an
            :class:`ExperimentSpec`, or an iterable of either.  ``None``
            starts empty (use :meth:`add`, or just the :meth:`scenario` /
            :meth:`trained_scheme` dedup helpers).
        scheme_cache: Optional dict holding trained schemes keyed by
            (scenario, scheme spec, training segment); pass a shared dict to
            reuse trainings across studies.
        scenario_cache: Optional dict holding built scenarios keyed by
            canonical reference; shareable the same way.

    Example::

        study = Study({
            "scenario": sweep("geant_small", "pfabric_small"),
            "scheme": sweep({"kind": "figret"}, {"kind": "dote"}),
            "perturbation": sweep({"kind": "none"},
                                  {"kind": "fluctuation", "alpha": 1.0}),
        })
        results = study.run()
        print(results.to_table())
    """

    def __init__(
        self,
        spec=None,
        scheme_cache: dict | None = None,
        scenario_cache: dict | None = None,
    ) -> None:
        self.specs: list[ExperimentSpec] = []
        self._scheme_cache = scheme_cache if scheme_cache is not None else {}
        # Live-instance / factory schemes key by object identity, which is
        # only stable while this study's specs pin the objects -- so they
        # dedup per study and never enter the (possibly shared) scheme_cache.
        self._object_scheme_cache: dict = {}
        self._scenario_cache = scenario_cache if scenario_cache is not None else {}
        self._baselines: dict[tuple, tuple[EvaluationResult, MLUStatistics]] = {}
        self._contexts: dict[str, _ScenarioContext] = {}
        self._test_slices: dict[tuple, TrafficMatrixSequence] = {}
        if spec is not None:
            self.add(spec)

    @classmethod
    def from_spec(cls, spec: Mapping, **kwargs) -> "Study":
        """Build a study from a plain-dict spec (sweep axes expanded)."""
        return cls(spec, **kwargs)

    @classmethod
    def from_json(cls, text: str, **kwargs) -> "Study":
        """Build a study from a JSON spec document."""
        return cls(json.loads(text), **kwargs)

    def add(self, spec) -> "Study":
        """Append cells: a spec mapping (expanded), a cell, or an iterable."""
        if isinstance(spec, ExperimentSpec):
            self.specs.append(spec)
        elif isinstance(spec, Mapping):
            self.specs.extend(ExperimentSpec.from_dict(cell) for cell in expand_spec(spec))
        elif isinstance(spec, Iterable) and not isinstance(spec, (str, bytes)):
            for item in spec:
                self.add(item)
        else:
            raise TypeError(
                "Study accepts a spec mapping, an ExperimentSpec, or an iterable of those; "
                f"got {type(spec).__name__}"
            )
        return self

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        engine: EvaluationEngine | None = None,
        checkpoint=None,
        cell_workers: int | str | None = None,
        warehouse=None,
    ) -> ResultSet:
        """Execute every cell and collect the uniform result records.

        Args:
            engine: Evaluation engine (the process-wide default -- and its
                shared LP cache -- if omitted).  Through its cache it names
                the LP pool width of every normaliser, training and replay:
                ``EvaluationEngine(cache=OptimalMLUCache(workers=))``.
            checkpoint: Optional path of a :class:`StudyCheckpoint`.  Every
                finished cell is appended to it immediately (crash-safe
                writes), so an interrupted grid restarts where it died via
                :meth:`resume` with zero repeat trainings or LP solves for
                the cells already on disk.  The path must not already exist
                -- resuming is explicit, never accidental.
            cell_workers: Process-pool width for *cell-level* parallelism
                (``"auto"`` derives one from the CPU count).  Declarative
                cells are grouped by (scenario, scheme spec) -- one training
                per distinct scheme spec, exactly as in sequential runs --
                and the groups fan out over a process pool; per-worker
                LP-cache entries and trained schemes are merged back on
                return, so a follow-up run repeats nothing.  Cells built
                from live objects (they cannot cross a process boundary)
                run in-process.  So do the groups of a call whose pool
                proves unusable (:mod:`repro.pool` counts the fallback
                under ``"cells"`` and warns the first time; the next call
                tries a fresh pool).  Results are bit-identical to
                ``cell_workers=None`` in every case.
            warehouse: Optional path or :class:`~repro.study.warehouse.
                ResultWarehouse` that every finished cell is appended to as
                it completes (after the checkpoint append, with the same
                crash-safe writes).  Unlike a checkpoint, a warehouse is
                *shared*: it may already hold records of other suites,
                studies, and sessions, and this run simply appends to it.

        Raises:
            FileExistsError: If ``checkpoint`` already exists (use
                :meth:`resume` to continue it).
            ValueError: If ``cell_workers`` is not ``None``, a positive int,
                or ``"auto"``.
        """
        return self.execute(
            self.plan(
                engine=engine,
                checkpoint=checkpoint,
                cell_workers=cell_workers,
                warehouse=warehouse,
            )
        )

    def resume(
        self,
        checkpoint,
        engine: EvaluationEngine | None = None,
        cell_workers: int | str | None = None,
        warehouse=None,
    ) -> ResultSet:
        """Finish an interrupted checkpointed run (see :meth:`run`).

        The spec grid is re-expanded, cells whose provenance already appears
        in the saved checkpoint are skipped (their records are loaded from
        disk), and only the remainder runs -- appending to the same file, so
        resuming is itself interruptible.  The returned :class:`ResultSet`
        is in spec order and bit-identical to an uninterrupted
        ``run(checkpoint=...)``.

        A missing checkpoint file simply starts a fresh checkpointed run,
        which makes re-running one command until it succeeds a complete
        crash-recovery loop.  A corrupt checkpoint raises a
        :class:`ValueError` naming the file (see :class:`StudyCheckpoint`).

        Args:
            checkpoint: Path of the checkpoint written by an earlier
                ``run(checkpoint=...)`` / ``resume(...)``.
            engine / cell_workers / warehouse: As in :meth:`run`.  Cells
                loaded from the checkpoint were appended to the warehouse by
                the session that ran them, so they are not re-appended here;
                a final :meth:`~repro.study.warehouse.ResultWarehouse.sync` pass
                restores any record lost in the crash window between a
                checkpoint append and its warehouse append.
        """
        return self.execute(
            self.plan(
                engine=engine,
                checkpoint=checkpoint,
                cell_workers=cell_workers,
                warehouse=warehouse,
                resume=True,
            )
        )

    @staticmethod
    def _reproducible(cell: ExperimentSpec) -> bool:
        """Whether a cell's provenance fully identifies it across processes.

        Live objects (scheme instances, factories, built scenarios) record
        only an ``{"inline": <name>}`` marker -- two different objects with
        one display name are indistinguishable on disk, so such cells are
        never resumed from a checkpoint (they re-run instead; serving a
        possibly-stale result silently would be worse).
        """
        return isinstance(cell.scenario, (str, Mapping)) and isinstance(
            cell.scheme, Mapping
        )

    def _match_checkpoint(
        self, saved: list[StudyResult]
    ) -> dict[int, StudyResult]:
        """Map saved records onto this study's cells by spec provenance.

        Duplicate cells (identical provenance listed twice) match records
        positionally; live-object cells never match (see
        :meth:`_reproducible`); declarative records matching no cell are
        kept on disk but excluded from the results, with a warning -- they
        usually mean the spec changed since the checkpoint was written.
        """
        by_key: dict[str, list[StudyResult]] = {}
        for record in saved:
            by_key.setdefault(canonical_json(record.spec), []).append(record)
        completed: dict[int, StudyResult] = {}
        inline_cells = 0
        inline_keys: set[str] = set()
        for index, cell in enumerate(self.specs):
            key = canonical_json(cell.to_dict())
            if not self._reproducible(cell):
                inline_cells += 1
                inline_keys.add(key)
                continue
            matches = by_key.get(key)
            if matches:
                completed[index] = matches.pop(0)
        if inline_cells:
            warnings.warn(
                f"{inline_cells} cell(s) built from live objects cannot be "
                "identified by provenance and will re-run on resume; use "
                "declarative scenario/scheme specs for resumable cells",
                RuntimeWarning,
                stacklevel=3,
            )
        unmatched = sum(
            len(records)
            for key, records in by_key.items()
            if key not in inline_keys  # live-object records re-run by design
        )
        if unmatched:
            warnings.warn(
                f"checkpoint holds {unmatched} record(s) whose provenance "
                "matches no cell of this spec (was the spec edited since the "
                "checkpoint was written?); they stay on disk but are "
                "excluded from the results",
                RuntimeWarning,
                stacklevel=3,
            )
        return completed

    def plan(
        self,
        engine: EvaluationEngine | None = None,
        checkpoint=None,
        cell_workers: int | str | None = None,
        warehouse=None,
        resume: bool = False,
    ) -> StudyPlan:
        """Build the execution plan :meth:`run` / :meth:`resume` would run.

        The plan-build half of the orchestration loop: validate the
        checkpoint situation, match already-finished cells (when
        ``resume=True``), resolve the engine and pool widths, and return an
        inert :class:`StudyPlan` describing exactly what :meth:`execute`
        will do.  Nothing is trained, solved, or written here, so a
        scheduler (the study server's job queue, a test harness) can build
        plans eagerly and own the loop itself.

        Args:
            engine / checkpoint / cell_workers / warehouse: As in :meth:`run`.
            resume: When true, cells whose provenance already appears in the
                (existing) checkpoint are loaded as completed instead of
                pending -- :meth:`resume` semantics; a missing checkpoint
                file simply plans a fresh run.  When false, an existing
                checkpoint raises :class:`FileExistsError` -- :meth:`run`
                semantics (resuming is explicit, never accidental).

        Raises:
            FileExistsError: If ``checkpoint`` exists and ``resume`` is
                false.
            ValueError: If ``resume`` is true without a ``checkpoint``, or
                ``cell_workers`` is invalid.
        """
        completed: dict[int, StudyResult] = {}
        if checkpoint is not None:
            store = StudyCheckpoint(checkpoint)
            if resume:
                if store.exists():
                    completed = self._match_checkpoint(store.load())
            elif store.exists():
                raise FileExistsError(
                    f"checkpoint {store.path} already exists; call "
                    f"Study.resume({str(store.path)!r}) to continue it, or "
                    "remove the file to start over"
                )
        elif resume:
            raise ValueError("resume=True needs a checkpoint path to resume from")
        if engine is None:
            engine = default_engine()
        # Same accepted forms as the LP pool width, but cell_workers does not
        # read REPRO_LP_WORKERS: that variable names the LP pool width, and
        # the cell pool nests an engine (with a width-1 cache) inside every
        # worker.
        cell_workers = resolve_workers(cell_workers)
        writer = StudyCheckpoint(checkpoint) if checkpoint is not None else None
        store = None
        if warehouse is not None:
            store = (
                warehouse
                if isinstance(warehouse, ResultWarehouse)
                else ResultWarehouse(warehouse)
            )
        pending = [
            (index, cell)
            for index, cell in enumerate(self.specs)
            if index not in completed
        ]
        return StudyPlan(
            pending=pending,
            completed=completed,
            engine=engine,
            cell_workers=cell_workers,
            checkpoint=writer,
            warehouse=store,
        )

    def execute(
        self,
        plan: StudyPlan,
        on_cell=None,
        should_stop=None,
    ) -> ResultSet:
        """Run a :class:`StudyPlan` and collect the uniform result records.

        The execution half of the orchestration loop.  ``run()`` is exactly
        ``execute(plan())`` and ``resume(path)`` is exactly
        ``execute(plan(checkpoint=path, resume=True))``; a scheduler calls
        this directly to observe and steer the loop:

        Args:
            plan: The plan built by :meth:`plan`.
            on_cell: Optional ``on_cell(index, record)`` callback invoked
                after each newly finished cell is checkpointed/warehoused --
                the study server streams records to its clients from here.
                Called in completion order (spec order when sequential; pool
                completion order under ``cell_workers``).
            should_stop: Optional zero-argument callable polled between
                cells (and before a pooled fan-out).  When it returns true,
                execution stops *cleanly*: everything finished so far is
                already on disk, and :class:`StudyCancelled` is raised so
                the caller knows the run is partial but resumable.

        Raises:
            StudyCancelled: When ``should_stop`` returned true before the
                grid finished.
        """
        engine = plan.engine
        writer = plan.checkpoint
        if writer is not None:
            writer.create()
        store = plan.warehouse
        if store is not None:
            store.create()
        try:
            records: dict[int, StudyResult] = dict(plan.completed)
            pending = list(plan.pending)
            total = len(self.specs)

            def _notify(index: int, record: StudyResult) -> None:
                if writer is not None:
                    writer.append(record)
                if store is not None:
                    store.append(record)
                if on_cell is not None:
                    on_cell(index, record)

            cell_workers = plan.cell_workers
            if cell_workers is not None and cell_workers > 1 and len(pending) > 1:
                if should_stop is not None and should_stop():
                    raise StudyCancelled(len(records), total)
                pending = self._run_pooled(
                    pending, engine, cell_workers, records, _notify
                )
            for index, cell in pending:
                if should_stop is not None and should_stop():
                    raise StudyCancelled(len(records), total)
                try:
                    record = self._run_cell(cell, engine)
                except Exception as exc:
                    if hasattr(exc, "add_note"):
                        exc.add_note(
                            f"raised by study cell {index + 1}/{len(self.specs)} "
                            f"(spec: {canonical_json(cell.to_dict())})"
                        )
                    raise
                records[index] = record
                _notify(index, record)
            results = ResultSet(records[index] for index in range(len(self.specs)))
            if store is not None and plan.completed:
                # Resumed cells were warehoused by the session that ran them --
                # except any lost in the crash window between their checkpoint
                # append and their warehouse append.  Reconcile by provenance so
                # the warehouse ends up complete without duplicating anything.
                store.sync(results)
            return results
        finally:
            # Release the held append descriptors on every exit, cancelled
            # and failed runs included.
            for held in (writer, store):
                if held is not None:
                    held.close()

    def _run_pooled(
        self,
        pending: list[tuple[int, ExperimentSpec]],
        engine: EvaluationEngine,
        cell_workers: int,
        records: dict[int, StudyResult],
        notify,
    ) -> list[tuple[int, ExperimentSpec]]:
        """Fan pending cells out over a process pool.

        Cells are grouped by (scenario, scheme spec) so a distinct scheme
        spec trains exactly once -- in whichever worker owns its group --
        while distinct specs train in parallel.  The known trade-off of this
        grouping: on a *cold* LP cache, groups sharing a scenario each solve
        that scenario's replay normalisers in their own worker (deduped only
        at merge-back), so pooled cold runs do up to schemes-per-scenario
        times the sequential LP work; with a warm snapshot -- the bench
        harness, resumes, any second run -- there is no duplication.
        Pre-solving normalisers in the parent would need the per-cell
        perturbed demand streams, i.e. most of cell execution; grouping by
        scenario instead would serialise the trainings.  Returns the cells
        that must still run in-process: ones carrying live objects, plus
        everything handed back by
        pool-infrastructure failures (never cell failures, which propagate
        after the surviving jobs are drained and checkpointed).
        """
        local: list[tuple[int, ExperimentSpec]] = []
        groups: dict[tuple[str, str], list[tuple[int, ExperimentSpec]]] = {}
        for index, cell in pending:
            if self._reproducible(cell):
                groups.setdefault(
                    (cell.scenario_key, cell.scheme_key), []
                ).append((index, cell))
            else:
                local.append((index, cell))
        if not groups:
            return local
        snapshot = engine.cache.entries_snapshot()
        # Ship each group only the cache entries of its own path set (keyed
        # by fingerprint) instead of pickling the whole -- possibly huge --
        # snapshot once per job.  Resolving the scenario context here builds
        # each scenario once in the parent (the cheap dedup layer; training
        # stays in the workers), which both reveals the fingerprint and
        # pre-warms the caches the in-process leftovers use.
        per_fingerprint: dict[str, dict] = {}

        def _snapshot_for(cell: ExperimentSpec) -> dict:
            ctx = self._context(cell)
            if ctx.paths is None:
                return snapshot
            fingerprint = ctx.paths.fingerprint
            filtered = per_fingerprint.get(fingerprint)
            if filtered is None:
                filtered = {
                    key: value for key, value in snapshot.items() if key[0] == fingerprint
                }
                per_fingerprint[fingerprint] = filtered
            return filtered

        jobs = []
        for (scenario_key, scheme_key), cells in groups.items():
            pretrained = {}
            for key, scheme in self._scheme_cache.items():
                if key[0] != scenario_key or key[1] != scheme_key:
                    continue
                # Probe picklability up front: the probe re-serialises the
                # weights once (cheap next to a training), and without it one
                # exotic cached scheme would surface as a submit-time
                # pickling error that falls back the *entire* pool.
                try:
                    pickle.dumps(scheme)
                except Exception:
                    continue  # worker retrains; still correct, just slower
                pretrained[key] = scheme
            jobs.append((cells, _snapshot_for(cells[0][1]), pretrained))
        leftover = list(local)
        first_error: Exception | None = None
        for job_index, outcome in fan_out(
            _run_cells_job, jobs, cell_workers, "cells", "study cell batch"
        ):
            cells = jobs[job_index][0]
            if outcome is HANDED_BACK:
                leftover.extend(cells)
                continue
            finished, new_entries, trained, cell_error, error_index = outcome
            engine.cache.merge_entries(new_entries)
            for key, scheme in trained.items():
                self._scheme_cache.setdefault(tuple(key), scheme)
            for index, record in finished:
                records[index] = record
                notify(index, record)
            if cell_error is not None and first_error is None:
                # A *cell* failed; its group's finished records were still
                # merged and checkpointed above.  Keep draining the other
                # jobs, then raise -- with the same cell-identifying note
                # the sequential path attaches.
                if hasattr(cell_error, "add_note") and error_index is not None:
                    failed = dict(cells).get(error_index)
                    spec_note = (
                        canonical_json(failed.to_dict()) if failed is not None else "?"
                    )
                    cell_error.add_note(
                        f"raised by study cell {error_index + 1}/{len(self.specs)} "
                        f"(spec: {spec_note})"
                    )
                first_error = cell_error
        if first_error is not None:
            raise first_error
        return sorted(leftover)

    # ------------------------------------------------------------------ #
    # Shared-work resolution (the dedup layers)
    # ------------------------------------------------------------------ #
    def scenario(self, reference) -> Scenario | InlineScenario:
        """Resolve (and cache) a scenario reference of any accepted form."""
        key = scenario_cache_key(reference)
        cached = self._scenario_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(reference, (Scenario, InlineScenario)):
            scenario = reference
        elif isinstance(reference, str):
            scenario = datasets_registry.load(reference)
        elif isinstance(reference, Mapping):
            if "name" in reference and "topology" not in reference:
                scenario = datasets_registry.load(
                    reference["name"],
                    seed=reference.get("seed", 0),
                    num_intervals=reference.get("num_intervals"),
                )
            else:
                scenario = datasets_registry.from_config(reference)
        else:
            raise TypeError(
                "scenario must be a registered name, a registry reference dict, an inline "
                f"config dict, or a Scenario; got {type(reference).__name__}"
            )
        self._scenario_cache[key] = scenario
        return scenario

    def _context(self, cell: ExperimentSpec) -> _ScenarioContext:
        key = cell.scenario_key
        ctx = self._contexts.get(key)
        if ctx is not None:
            return ctx
        scenario = self.scenario(cell.scenario)
        if isinstance(scenario, InlineScenario):
            ctx = _ScenarioContext(
                key=key,
                name=scenario.name,
                paths=scenario.paths,
                train=scenario.train,
                test=scenario.test,
                traffic=scenario.traffic,
                history_len=scenario.history_len,
            )
        else:
            train, test = scenario.split()
            ctx = _ScenarioContext(
                key=key,
                name=scenario.name,
                paths=scenario.paths,
                train=train,
                test=test,
                traffic=scenario.traffic,
                history_len=scenario.history_len,
            )
        self._contexts[key] = ctx
        return ctx

    def trained_scheme(
        self, cell: ExperimentSpec | Mapping, engine: EvaluationEngine | None = None
    ) -> TEScheme:
        """Resolve (and cache) the trained scheme a cell would evaluate.

        Exposed so callers can pre-train a grid's schemes -- or share one
        training across studies via a common ``scheme_cache`` -- without
        running any replay.
        """
        if not isinstance(cell, ExperimentSpec):
            cell = ExperimentSpec.from_dict(cell)
        if engine is None:
            engine = default_engine()
        ctx = self._context(cell)
        return self._resolve_scheme(cell, ctx, engine, ctx.train, "default")

    def _resolve_scheme(
        self,
        cell: ExperimentSpec,
        ctx: _ScenarioContext,
        engine: EvaluationEngine,
        train_sequence: TrafficMatrixSequence | None,
        train_key: str,
    ) -> TEScheme:
        cache = self._scheme_cache if isinstance(cell.scheme, Mapping) else self._object_scheme_cache
        key = (ctx.key, cell.scheme_key, train_key)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if isinstance(cell.scheme, TEScheme):
            scheme = cell.scheme
        elif isinstance(cell.scheme, Mapping):
            if ctx.paths is None:
                raise ValueError(
                    f"cell scenario {ctx.name!r} provides no path set to build scheme "
                    f"{cell.scheme.get('kind')!r} on"
                )
            scheme = build_scheme(cell.scheme, ctx.paths, cache=engine.cache)
        elif callable(cell.scheme):
            scheme = cell.scheme()
        else:
            raise TypeError(
                "scheme must be a spec dict, a TEScheme, or a zero-argument factory; "
                f"got {type(cell.scheme).__name__}"
            )
        if ctx.paths is not None and scheme.path_set.fingerprint != ctx.paths.fingerprint:
            raise ValueError(
                f"scheme {scheme.name!r} uses a different path set than scenario "
                f"{ctx.name!r}; schemes under one scenario must share its PathSet so "
                "their normalised MLUs are comparable"
            )
        if cell.train:
            if train_sequence is None:
                raise ValueError(
                    f"scenario {ctx.name!r} provides no training data; pass train=False "
                    "for pre-trained schemes or use a scenario with a training split"
                )
            scheme.precompute(train_sequence)
        cache[key] = scheme
        return scheme

    # ------------------------------------------------------------------ #
    # Cell execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _history_len(cell: ExperimentSpec, ctx: _ScenarioContext) -> int:
        history = cell.history_len if cell.history_len is not None else ctx.history_len
        if history is None:
            raise ValueError(
                f"cell on scenario {ctx.name!r} has no history_len (set it on the cell "
                "or the scenario)"
            )
        return history

    def _sliced_test(
        self,
        ctx_key: str,
        test: TrafficMatrixSequence,
        history_len: int,
        max_intervals: int | None,
    ) -> TrafficMatrixSequence:
        """Cap the test split at ``history_len + max_intervals`` rows.

        Sliced once per scenario x knobs -- every cell of a grid row shares
        the same sequence object.
        """
        if max_intervals is None:
            return test
        key = (ctx_key, id(test), history_len, max_intervals)
        sliced = self._test_slices.get(key)
        if sliced is None:
            limit = history_len + max_intervals
            sliced = test[: min(len(test), limit)]
            self._test_slices[key] = sliced
        return sliced

    def _drift_test_segment(
        self, ctx: _ScenarioContext, traffic: TrafficMatrixSequence, test_segment: tuple
    ) -> TrafficMatrixSequence:
        """The drift protocol's held-out test slice (cut once per scenario)."""
        key = (ctx.key, "drift_test", test_segment)
        cached = self._test_slices.get(key)
        if cached is None:
            cached = traffic.segment(*test_segment)
            self._test_slices[key] = cached
        return cached

    def _replay(
        self,
        cell: ExperimentSpec,
        engine: EvaluationEngine,
        scheme: TEScheme,
        test: TrafficMatrixSequence,
        history_len: int,
    ) -> EvaluationResult:
        if cell.streaming:
            return engine.evaluate_streaming(
                scheme,
                test,
                history_len,
                chunk_size=cell.chunk_size,
                oracle_demand=cell.oracle_demand,
            )
        return engine.evaluate_scheme(
            scheme, test, history_len, oracle_demand=cell.oracle_demand
        )

    def _baseline(
        self,
        cell: ExperimentSpec,
        engine: EvaluationEngine,
        ctx: _ScenarioContext,
        scheme: TEScheme,
        test: TrafficMatrixSequence,
        history_len: int,
        train_key: str = "default",
    ) -> tuple[EvaluationResult, MLUStatistics]:
        """The unperturbed replay of a cell (one per scenario x scheme x knobs)."""
        key = (ctx.key, cell.scheme_key, cell.eval_key, train_key)
        cached = self._baselines.get(key)
        if cached is None:
            result = self._replay(cell, engine, scheme, test, history_len)
            cached = (result, result.statistics)
            self._baselines[key] = cached
        return cached

    @staticmethod
    def _scheme_label(cell: ExperimentSpec, scheme: TEScheme) -> str:
        if isinstance(cell.scheme, Mapping) and cell.scheme.get("label"):
            return str(cell.scheme["label"])
        return scheme.name

    def _record(
        self,
        cell: ExperimentSpec,
        ctx: _ScenarioContext,
        scheme_label: str,
        experiment: str,
        metrics: dict,
        series: np.ndarray | None,
        result: EvaluationResult | None = None,
    ) -> StudyResult:
        return StudyResult(
            scenario=ctx.name,
            scheme=scheme_label,
            experiment=experiment,
            spec=cell.to_dict(),
            metrics=metrics,
            series=series,
            result=result,
        )

    def _run_cell(self, cell: ExperimentSpec, engine: EvaluationEngine) -> StudyResult:
        ctx = self._context(cell)
        kind = cell.perturbation["kind"]
        if kind == "drift":
            return self._run_drift(cell, ctx, engine)
        if ctx.test is None:
            raise ValueError(f"scenario {ctx.name!r} provides no test sequence")
        history_len = self._history_len(cell, ctx)
        test = self._sliced_test(ctx.key, ctx.test, history_len, cell.max_intervals)
        scheme = self._resolve_scheme(cell, ctx, engine, ctx.train, "default")
        if kind == "none":
            result, stats = self._baseline(cell, engine, ctx, scheme, test, history_len)
            metrics = dict(vars(stats))
            return self._record(
                cell,
                ctx,
                self._scheme_label(cell, scheme),
                "replay",
                metrics,
                result.normalized_mlus,
                result,
            )
        if kind == "fluctuation":
            return self._run_fluctuation(cell, ctx, engine, scheme, test, history_len)
        return self._run_failure(cell, ctx, engine, scheme, test, history_len)

    def _run_fluctuation(
        self, cell, ctx, engine, scheme, test, history_len
    ) -> StudyResult:
        perturbation = cell.perturbation
        # Resolved before the baseline replay: a train-less scenario fails
        # with pair_std's spec-level error instead of replaying first.
        pair_std = ctx.pair_std()
        _, base_stats = self._baseline(cell, engine, ctx, scheme, test, history_len)
        perturb = reverse_rank_fluctuation if perturbation["worst_case"] else gaussian_fluctuation
        perturbed = perturb(
            test, perturbation["alpha"], pair_std, seed=perturbation["seed"]
        )
        result = self._replay(cell, engine, scheme, perturbed, history_len)
        stats = result.statistics
        metrics = dict(vars(stats))
        metrics["average_decline"] = stats.mean / base_stats.mean - 1.0
        metrics["p90_decline"] = stats.p90 / base_stats.p90 - 1.0
        return self._record(
            cell,
            ctx,
            self._scheme_label(cell, scheme),
            "fluctuation",
            metrics,
            result.normalized_mlus,
            result,
        )

    def _run_failure(self, cell, ctx, engine, scheme, test, history_len) -> StudyResult:
        perturbation = cell.perturbation
        if cell.streaming or cell.oracle_demand:
            raise ValueError(
                "failure cells replay through the batched failure protocol; the "
                "streaming and oracle_demand knobs do not apply to them"
            )
        can_be_told = hasattr(scheme, "set_failures")
        fault_aware = perturbation["fault_aware"]
        if fault_aware is None:
            fault_aware = can_be_told
        elif fault_aware and not can_be_told:
            kind = cell.scheme["kind"] if isinstance(cell.scheme, Mapping) else scheme.name
            raise ValueError(
                f"failure cell sets \"fault_aware\": true on scheme {kind!r}, which "
                "has no set_failures() to be told the failed links through; drop "
                "fault_aware (or set it to false) so its configuration is "
                "rerouted around the failures instead"
            )
        names = (scheme.name,) if fault_aware else ()
        try:
            series = engine.failure_experiment(
                [scheme],
                test,
                history_len,
                perturbation["num_failures"],
                num_trials=perturbation["num_trials"],
                fault_aware_names=names,
                seed=perturbation["seed"],
            )[scheme.name]
        finally:
            # The failure protocol mutates fault-aware schemes (set_failures
            # per trial); clear the last trial's failures so other cells
            # reusing this cached scheme replay an intact network.
            if fault_aware:
                scheme.set_failures(set())
        metrics = dict(vars(normalized_mlu_statistics(series)))
        return self._record(
            cell, ctx, self._scheme_label(cell, scheme), "failure", metrics, series
        )

    def _run_drift(self, cell: ExperimentSpec, ctx, engine) -> StudyResult:
        perturbation = cell.perturbation
        if isinstance(cell.scheme, TEScheme):
            raise ValueError(
                "drift cells retrain from scratch per segment; pass a scheme spec dict "
                "or a zero-argument factory instead of a live instance"
            )
        if not cell.train:
            raise ValueError(
                "drift cells measure decline from retraining, which train=False "
                "disables; drop train=False (there is no pre-trained scheme to protect)"
            )
        traffic = ctx.traffic
        if traffic is None:
            raise ValueError(
                f"scenario {ctx.name!r} provides no full traffic sequence (drift cells "
                "re-split it into training segments)"
            )
        test_segment = tuple(float(v) for v in perturbation["test_segment"])
        train_segment = tuple(float(v) for v in perturbation["train_segment"])
        history_len = self._history_len(cell, ctx)
        test_full = self._drift_test_segment(ctx, traffic, test_segment)
        test = self._sliced_test(ctx.key, test_full, history_len, cell.max_intervals)

        baseline_key = f"segment:0.0-{test_segment[0]}"
        baseline_scheme = self._resolve_scheme(
            cell, ctx, engine, traffic.segment(0.0, test_segment[0]), baseline_key
        )
        # The replay cache key carries the test segment too: two drift cells
        # sharing a training prefix but held out on different slices must not
        # reuse one another's baseline replay.
        _, base_stats = self._baseline(
            cell,
            engine,
            ctx,
            baseline_scheme,
            test,
            history_len,
            train_key=f"{baseline_key}|test:{test_segment[0]}-{test_segment[1]}",
        )

        segment_key = f"segment:{train_segment[0]}-{train_segment[1]}"
        scheme = self._resolve_scheme(
            cell, ctx, engine, traffic.segment(*train_segment), segment_key
        )
        result = self._replay(cell, engine, scheme, test, history_len)
        stats = result.statistics
        metrics = dict(vars(stats))
        metrics["average_decline"] = stats.mean / base_stats.mean - 1.0
        metrics["p90_decline"] = stats.p90 / base_stats.p90 - 1.0
        return self._record(
            cell,
            ctx,
            self._scheme_label(cell, scheme),
            "drift",
            metrics,
            result.normalized_mlus,
            result,
        )
