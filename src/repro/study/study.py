"""The :class:`Study` orchestrator: expand a spec grid, dedup, execute.

A study turns a declarative spec (see :mod:`repro.study.spec`) into a
:class:`~repro.study.results.ResultSet` by running every cell through the
batched/streaming :class:`~repro.evaluation.engine.EvaluationEngine`.  The
orchestration layer's whole job is deduplicating the shared work of a grid:

* **Scenarios** are built once per distinct scenario reference (name + seed +
  trace length, or canonical inline config) and shared by every cell.
* **Schemes** are trained once per distinct scheme spec per scenario (and per
  drift training segment); the scheme axis of a grid never retrains.
* **Replays** run once per trained scheme x trace *per engine*, which
  memoises them (:class:`~repro.evaluation.engine.ReplaySession`): a study
  re-run on the same engine with the same trained schemes (a shared
  ``scheme_cache``) configures, perturbs and reroutes nothing.
* **LP normalisers** are served by the engine's
  :class:`~repro.solvers.lp.OptimalMLUCache` -- one optimal-MLU pass per
  distinct demand matrix across the *whole* grid, so adding schemes or
  re-running a study never repeats an LP solve (assert it with
  :func:`~repro.solvers.lp.count_lp_solves`).  Cold solves run on the
  solver, and over the pool width, that cache was built with.

Cells run one at a time in this process, in spec order; their records
reach the checkpoint and warehouse in commits, one per cell that trained
or solved and one per exit (see :meth:`Study.execute`).

Pass ``scheme_cache`` / ``scenario_cache`` dicts to share the first two
dedup layers across studies in one process (the benchmark harness does);
with the same engine the replays carry over too.  A study that owns its
scheme cache (no ``scheme_cache`` passed) frees each trained scheme, and
with it the scheme's memoised replays, once no pending cell needs them, so
a sweep of trainings holds one model at a time instead of all of them.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.datasets import registry as datasets_registry
from repro.datasets.registry import Scenario
from repro.evaluation.engine import (
    EvaluationEngine,
    EvaluationResult,
    Replay,
    ReplaySession,
    default_engine,
)
from repro.paths.path_set import PathSet
from repro.solvers.lp import LPSolveTally
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
from repro.study.suite import _SUITE_KEYS, expand_suite
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
        checkpoint: The checkpoint store finished cells append to (or
            ``None``).
        warehouse: The results warehouse finished cells append to (or
            ``None``).
    """

    pending: list[tuple[int, "ExperimentSpec"]]
    completed: dict[int, StudyResult]
    engine: EvaluationEngine
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


@dataclass
class _ScenarioContext:
    """A scenario resolved into the pieces cell execution needs."""

    name: str
    paths: PathSet | None
    train: TrafficMatrixSequence | None
    test: TrafficMatrixSequence | None
    traffic: TrafficMatrixSequence | None
    history_len: int | None

    @functools.cached_property
    def pair_std(self) -> np.ndarray:
        """The training split's per-pair std (computed once per scenario)."""
        return self.train.pair_std()


class Study:
    """Declarative experiment orchestrator.

    Args:
        spec: A study spec mapping (sweep axes expand into the grid), a
            suite descriptor mapping (see :mod:`repro.study.suite`), an
            :class:`ExperimentSpec`, or an iterable of those.  ``None``
            starts empty (use :meth:`add`, or just the :meth:`scenario` /
            :meth:`trained_scheme` dedup helpers).
        scheme_cache: Optional dict holding trained schemes keyed by
            (scenario, scheme spec, training segment); pass a shared dict to
            reuse trainings across studies -- and, on the same engine, their
            replays, which the engine memoises per trained scheme object.
            Without one the study owns its cache and :meth:`execute` frees
            each trained scheme (and so its memoised replays) after the
            scheme's last pending cell, so peak memory holds the schemes
            still in use, not every one trained; a later
            :meth:`trained_scheme` call then retrains (same weights) and
            replays cold.  Pass ``scheme_cache=`` to keep trained schemes
            beyond :meth:`execute`.
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
        # A study that owns its scheme cache frees what no pending cell needs
        # (see _settle); a caller's dict is kept whole.
        self._owns_schemes = scheme_cache is None
        self._scheme_cache = scheme_cache if scheme_cache is not None else {}
        self._scenario_cache = scenario_cache if scenario_cache is not None else {}
        self._contexts: dict[str, _ScenarioContext] = {}
        # Schemes trained so far (a cell that trains commits at once).
        self._trainings = 0
        if spec is not None:
            self.add(spec)

    def add(self, spec) -> "Study":
        """Append cells: a document mapping (expanded), a cell, or an iterable.

        A mapping with any suite descriptor key expands through
        :func:`~repro.study.suite.expand_suite`; any other mapping is a
        study spec and expands through :func:`~repro.study.spec.expand_spec`.
        """
        if isinstance(spec, ExperimentSpec):
            self.specs.append(spec)
        elif isinstance(spec, Mapping):
            if _SUITE_KEYS.intersection(spec):
                self.specs.extend(expand_suite(spec))
            else:
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
        warehouse=None,
    ) -> ResultSet:
        """Execute every cell and collect the uniform result records.

        Args:
            engine: Evaluation engine (the process-wide default -- and its
                shared LP cache -- if omitted).  Through its cache it names
                the LP pool width of every normaliser, training and replay:
                ``EvaluationEngine(cache=OptimalMLUCache(workers=))``.
            checkpoint: Optional path of a :class:`StudyCheckpoint`.
                Finished cells are committed to it as :meth:`execute` says
                (crash-safe writes; every cell that trained or solved is on
                disk before the next cell starts), so an interrupted grid
                restarts where it died via :meth:`resume` with zero repeat
                trainings or LP solves for the cells already on disk.  The
                path must not already exist -- resuming is explicit, never
                accidental.
            warehouse: Optional path or :class:`~repro.study.warehouse.
                ResultWarehouse` that finished cells are appended to in the
                same commits (after the checkpoint append, with the same
                crash-safe writes).  Unlike a checkpoint, a warehouse is
                *shared*: it may already hold records of other suites,
                studies, and sessions, and this run simply appends to it.

        Raises:
            FileExistsError: If ``checkpoint`` already exists (use
                :meth:`resume` to continue it).
        """
        return self.execute(
            self.plan(
                engine=engine,
                checkpoint=checkpoint,
                warehouse=warehouse,
            )
        )

    def resume(
        self,
        checkpoint,
        engine: EvaluationEngine | None = None,
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
            engine / warehouse: As in :meth:`run`.  Cells
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
                warehouse=warehouse,
                resume=True,
            )
        )

    def _match_checkpoint(
        self, saved: list[StudyResult]
    ) -> dict[int, StudyResult]:
        """Map saved records onto this study's cells by spec provenance.

        Duplicate cells (identical provenance listed twice) match records
        positionally.  A cell on a live scenario object (a built
        :class:`Scenario` or an :class:`InlineScenario`) never matches: its
        provenance records only an ``{"inline": <name>}`` marker, which two
        different objects with one display name share, so it re-runs
        (serving a possibly-stale result silently would be worse).
        Declarative records matching no cell are kept on disk but excluded
        from the results, with a warning -- they usually mean the spec
        changed since the checkpoint was written.
        """
        by_key: dict[str, list[StudyResult]] = {}
        for record in saved:
            by_key.setdefault(canonical_json(record.spec), []).append(record)
        completed: dict[int, StudyResult] = {}
        inline_cells = 0
        inline_keys: set[str] = set()
        for index, cell in enumerate(self.specs):
            key = cell.provenance_key
            if not isinstance(cell.scenario, (str, Mapping)):
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
                "declarative scenario specs for resumable cells",
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
        warehouse=None,
        resume: bool = False,
    ) -> StudyPlan:
        """Build the execution plan :meth:`run` / :meth:`resume` would run.

        The plan-build half of the orchestration loop: validate the
        checkpoint situation, match already-finished cells (when
        ``resume=True``), resolve the engine, and return an
        inert :class:`StudyPlan` describing exactly what :meth:`execute`
        will do.  Nothing is trained, solved, or written here, so a
        scheduler (the study server's job queue, a test harness) can build
        plans eagerly and own the loop itself.

        Args:
            engine / checkpoint / warehouse: As in :meth:`run`.
            resume: When true, cells whose provenance already appears in the
                (existing) checkpoint are loaded as completed instead of
                pending -- :meth:`resume` semantics; a missing checkpoint
                file simply plans a fresh run.  When false, an existing
                checkpoint raises :class:`FileExistsError` -- :meth:`run`
                semantics (resuming is explicit, never accidental).

        Raises:
            FileExistsError: If ``checkpoint`` exists and ``resume`` is
                false.
            ValueError: If ``resume`` is true without a ``checkpoint``.
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
                for each newly finished cell once its record is committed to
                the checkpoint and the warehouse (at once when the plan has
                neither) -- the study server streams records to its clients
                from here.  Called in spec order.
            should_stop: Optional zero-argument callable polled between
                cells.  When it returns true, execution stops *cleanly*:
                everything finished so far is committed, and
                :class:`StudyCancelled` is raised so the caller knows the run
                is partial but resumable.

        Finished records are committed on a fixed rule.  A cell that did
        real work -- trained a scheme, ran an LP solve, or missed the
        engine's normaliser cache -- commits every record finished so far
        right after it; a cell that only reused trained schemes and cached
        optima leaves its record buffered for the next commit.  Every exit
        commits too: the end of the grid, a cancel, a raising cell and
        ``KeyboardInterrupt``.  A commit is one
        :meth:`~repro.store.JsonlStore.extend` per store (one write and one
        fsync each) and writes the bytes per-cell appends would, so a warm
        grid costs one append per store and a crash loses only records of
        cells that reused work.

        The cells replay through one
        :class:`~repro.evaluation.engine.ReplaySession` on the plan's
        engine, closed when this call returns.  A study that owns its scheme
        cache (built without ``scheme_cache=``) drops each (scenario,
        scheme) pair's trained schemes, and so their memoised replays, as
        soon as the pair's last pending cell has finished; pass
        ``scheme_cache=`` to keep the schemes beyond this call.

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
        stores = [held for held in (writer, store) if held is not None]
        buffered: list[tuple[int, StudyResult]] = []

        def commit() -> None:
            """One append per store for the buffered records, then announce them."""
            batch = buffered[:]
            buffered.clear()
            for held in stores:
                held.extend(record for _, record in batch)
            if on_cell is not None:
                for index, record in batch:
                    on_cell(index, record)

        solves = LPSolveTally()

        def work() -> tuple[int, int, int]:
            return self._trainings, solves.count, engine.cache.misses

        replays = ReplaySession(
            engine,
            {
                (cell.scenario_key, cell.scheme_key)
                for _, cell in plan.pending
                if cell.perturbation["kind"] == "failure"
            },
        )
        try:
            records: dict[int, StudyResult] = dict(plan.completed)
            remaining = (
                Counter((cell.scenario_key, cell.scheme_key) for _, cell in plan.pending)
                if self._owns_schemes
                else None
            )
            for index, cell in plan.pending:
                if should_stop is not None and should_stop():
                    raise StudyCancelled(len(records), len(self.specs))
                before = work()
                try:
                    record = self._run_cell(cell, replays)
                except Exception as exc:
                    if hasattr(exc, "add_note"):
                        exc.add_note(
                            f"raised by study cell {index + 1}/{len(self.specs)} "
                            f"(spec: {cell.provenance_key})"
                        )
                    raise
                records[index] = record
                self._settle(remaining, (cell.scenario_key, cell.scheme_key))
                buffered.append((index, record))
                # A cell that trained or solved commits at once; one that only
                # reused work waits for the next commit.
                if not stores or work() != before:
                    commit()
            commit()
            results = ResultSet(records[index] for index in range(len(self.specs)))
            if store is not None and plan.completed:
                # Resumed cells were warehoused by the session that ran them --
                # except any lost in the crash window between their checkpoint
                # append and their warehouse append.  Reconcile by provenance so
                # the warehouse ends up complete without duplicating anything.
                store.sync(results)
            return results
        except BaseException:
            # A cancel, a raising cell or Ctrl-C: the finished cells still
            # reach the disk, and their callers, before the error does.
            commit()
            raise
        finally:
            # Release the held append descriptors and the kept
            # configurations on every exit, cancelled and failed runs
            # included.
            for held in stores:
                held.close()
            replays.close()

    def _settle(self, remaining: Counter | None, pair: tuple[str, str]) -> None:
        """Count one finished cell of a (scenario, scheme) pair.

        When the pair has no pending cell left, its trained schemes (every
        training segment) are dropped, and with them their entries in the
        engine's replay memo.  ``remaining`` is ``None`` when the caller
        shares the scheme cache: nothing is dropped.
        """
        if remaining is None:
            return
        remaining[pair] -= 1
        if remaining[pair] > 0:
            return
        del remaining[pair]
        for key in [key for key in self._scheme_cache if key[:2] == pair]:
            del self._scheme_cache[key]

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
            train, test = scenario.train, scenario.test
        else:
            train, test = scenario.split()
        ctx = _ScenarioContext(
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

        Raises:
            ValueError: If the cell's scenario has no path set or no
                training split to build and train the scheme on.
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
        key = (cell.scenario_key, cell.scheme_key, train_key)
        cached = self._scheme_cache.get(key)
        if cached is not None:
            return cached
        kind = cell.scheme["kind"]
        if ctx.paths is None:
            raise ValueError(
                f"cell scenario {ctx.name!r} provides no path set to build scheme {kind!r} on"
            )
        if train_sequence is None:
            raise ValueError(
                f"scenario {ctx.name!r} provides no training split to train scheme "
                f"{kind!r} on; every cell's scheme is trained before it is replayed"
            )
        scheme = build_scheme(cell.scheme, ctx.paths, cache=engine.cache)
        scheme.precompute(train_sequence)
        self._trainings += 1
        self._scheme_cache[key] = scheme
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

    @staticmethod
    def _sliced_test(
        test: TrafficMatrixSequence, history_len: int, max_intervals: int | None
    ) -> TrafficMatrixSequence:
        """Cap the test split at ``history_len + max_intervals`` rows (a view)."""
        if max_intervals is None:
            return test
        return test[: history_len + max_intervals]

    @staticmethod
    def _record(
        cell: ExperimentSpec,
        ctx: _ScenarioContext,
        scheme: TEScheme,
        experiment: str,
        metrics: dict,
        series: np.ndarray | None,
        result: EvaluationResult | None = None,
    ) -> StudyResult:
        """The cell's record; its scheme column is the spec's label, else the scheme's name."""
        return StudyResult(
            scenario=ctx.name,
            scheme=str(cell.scheme.get("label") or scheme.name),
            experiment=experiment,
            spec=cell.to_dict(),
            metrics=metrics,
            series=series,
            result=result,
        )

    def _replay_record(self, cell, ctx, scheme, experiment, replay, base=None) -> StudyResult:
        """A replay's record: its statistics, and their declines from ``base`` if given."""
        stats = replay.statistics
        metrics = dict(vars(stats))
        if base is not None:
            metrics["average_decline"] = stats.mean / base.mean - 1.0
            metrics["p90_decline"] = stats.p90 / base.p90 - 1.0
        return self._record(
            cell, ctx, scheme, experiment, metrics, replay.result.normalized_mlus, replay.result
        )

    @staticmethod
    def _replay(
        replays: ReplaySession, cell, scheme, test, history_len, segment="default", perturb=None
    ) -> Replay:
        """The cell's replay of ``scheme`` over ``test``, memoised by ``replays``."""
        return replays.replay(
            scheme,
            (cell.scenario_key, cell.scheme_key),
            test,
            history_len,
            segment=segment,
            perturbation=None if perturb is None else (canonical_json(cell.perturbation), perturb),
            oracle_demand=cell.oracle_demand,
            chunk_size=cell.chunk_size if cell.streaming else None,
        )

    def _run_cell(self, cell: ExperimentSpec, replays: ReplaySession) -> StudyResult:
        ctx = self._context(cell)
        kind = cell.perturbation["kind"]
        if kind == "drift":
            return self._run_drift(cell, ctx, replays)
        if ctx.test is None:
            raise ValueError(f"scenario {ctx.name!r} provides no test sequence")
        history_len = self._history_len(cell, ctx)
        test = self._sliced_test(ctx.test, history_len, cell.max_intervals)
        scheme = self._resolve_scheme(cell, ctx, replays.engine, ctx.train, "default")
        if kind == "failure":
            return self._run_failure(cell, ctx, replays, scheme, test, history_len)
        base = self._replay(replays, cell, scheme, test, history_len)
        if kind == "none":
            return self._replay_record(cell, ctx, scheme, "replay", base)
        perturbation = cell.perturbation
        fluctuate = (
            reverse_rank_fluctuation if perturbation["worst_case"] else gaussian_fluctuation
        )
        replay = self._replay(
            replays,
            cell,
            scheme,
            test,
            history_len,
            # The training split's std is computed only on a memo miss.
            perturb=lambda trace: fluctuate(
                trace, perturbation["alpha"], ctx.pair_std, seed=perturbation["seed"]
            ),
        )
        return self._replay_record(cell, ctx, scheme, "fluctuation", replay, base.statistics)

    def _run_failure(self, cell, ctx, replays, scheme, test, history_len) -> StudyResult:
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
            raise ValueError(
                f"failure cell sets \"fault_aware\": true on scheme {cell.scheme['kind']!r}, which "
                "has no set_failures() to be told the failed links through; drop "
                "fault_aware (or set it to false) so its configuration is "
                "rerouted around the failures instead"
            )
        series, statistics = replays.failure_series(
            scheme,
            (cell.scenario_key, cell.scheme_key),
            test,
            history_len,
            perturbation["num_failures"],
            perturbation["num_trials"],
            perturbation["seed"],
            fault_aware,
        )
        return self._record(cell, ctx, scheme, "failure", dict(vars(statistics)), series)

    def _run_drift(self, cell: ExperimentSpec, ctx, replays) -> StudyResult:
        perturbation = cell.perturbation
        traffic = ctx.traffic
        if traffic is None:
            raise ValueError(
                f"scenario {ctx.name!r} provides no full traffic sequence (drift cells "
                "re-split it into training segments)"
            )
        test_segment = tuple(float(v) for v in perturbation["test_segment"])
        train_segment = tuple(float(v) for v in perturbation["train_segment"])
        history_len = self._history_len(cell, ctx)
        test = self._sliced_test(
            traffic.segment(*test_segment), history_len, cell.max_intervals
        )
        # The replay's segment names the held-out slice too: two drift cells
        # sharing a training prefix but held out on different slices must not
        # reuse one another's replays.
        held_out = f"test:{test_segment[0]}-{test_segment[1]}"
        # Baseline: the same scheme trained on everything before the test slice.
        base_key = f"segment:0.0-{test_segment[0]}"
        baseline = self._resolve_scheme(
            cell, ctx, replays.engine, traffic.segment(0.0, test_segment[0]), base_key
        )
        base = self._replay(
            replays, cell, baseline, test, history_len, segment=f"{base_key}|{held_out}"
        )
        train_key = f"segment:{train_segment[0]}-{train_segment[1]}"
        scheme = self._resolve_scheme(
            cell, ctx, replays.engine, traffic.segment(*train_segment), train_key
        )
        replay = self._replay(
            replays, cell, scheme, test, history_len, segment=f"{train_key}|{held_out}"
        )
        return self._replay_record(cell, ctx, scheme, "drift", replay, base.statistics)
