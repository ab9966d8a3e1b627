"""Span tracing of the program's layers, installed from outside.

Nothing in ``src/`` knows about this module.  :data:`SPAN_TABLE` names the
public callables that sit on layer boundaries; :meth:`Tracer.install` wraps
them in place (methods on their classes, module functions in every loaded
``repro`` module that holds a reference to them, so ``from x import f``
call sites are covered too) and :meth:`Tracer.uninstall` puts the originals
back.  Spans are kept in memory as plain tuples and only turned into dicts
when :meth:`Tracer.write` dumps them.

The tracer assumes one thread: every workload is a closed loop with one
caller.  Work inside pool workers or the study daemon's process cannot be
reached from here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["SPAN_TABLE", "SPANS_WITH_CHILDREN", "Tracer"]

#: ``(span name, targets)``; a target is ``module:function`` or
#: ``module:Class.method``.  Order is the layer order of ``src/repro``.
SPAN_TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("datasets.load", ("repro.datasets.registry:load",)),
    ("paths.build_ksp", ("repro.paths.ksp:build_ksp_path_set",)),
    (
        "traffic.windows",
        (
            "repro.traffic.windows:build_history_windows",
            "repro.traffic.windows:iter_window_chunks",
        ),
    ),
    (
        "traffic.perturb",
        (
            "repro.traffic.perturb:gaussian_fluctuation",
            "repro.traffic.perturb:reverse_rank_fluctuation",
        ),
    ),
    ("core.fit", ("repro.core.trainer:Trainer.fit",)),
    ("core.teal_precompute", ("repro.core.teal_like:TealLike.precompute",)),
    ("core.forward", ("repro.core.model:FigretNet.forward",)),
    ("core.loss", ("repro.core.loss:TELoss.__call__",)),
    ("nn.backward", ("repro.nn.tensor:Tensor.backward",)),
    ("nn.optim_step", ("repro.nn.optim:Adam.step",)),
    ("solvers.cache.optimal_mlus", ("repro.solvers.lp:OptimalMLUCache.optimal_mlus",)),
    ("solvers.lp.batch", ("repro.solvers.lp:solve_mlu_lp_batch",)),
    ("solvers.lp.solve", ("repro.solvers.lp:solve_mlu_lp",)),
    ("solvers.lp.structure", ("repro.solvers.lp:MLUConstraintStructure.__init__",)),
    ("solvers.lp.a_ub", ("repro.solvers.lp:MLUConstraintStructure.a_ub",)),
    (
        "solvers.lp_backend.solve",
        (
            "repro.solvers.lp_backend:ScipyLinprogBackend.solve",
            "repro.solvers.lp_backend:PersistentHighsBackend.solve",
        ),
    ),
    (
        "solvers.lp_backend.solve_mlu",
        (
            "repro.solvers.lp_backend:ScipyLinprogBackend.solve_mlu",
            "repro.solvers.lp_backend:PersistentHighsBackend.solve_mlu",
        ),
    ),
    ("solvers.lp_backend.linprog", ("repro.solvers.lp_backend:linprog",)),
    (
        "scheme.configure_batch.neural",
        (
            "repro.core.trainer:TrainerBackedScheme.configure_batch",
            "repro.core.teal_like:TealLike.configure_batch",
        ),
    ),
    ("scheme.configure_batch.lp", ("repro.te.scheme:TEScheme.configure_batch",)),
    (
        "scheme.configure",
        (
            "repro.core.trainer:TrainerBackedScheme.configure",
            "repro.core.teal_like:TealLike.configure",
            "repro.solvers.desensitization:DesensitizationTE.configure",
            "repro.solvers.lp:PredictionBasedTE.configure",
        ),
    ),
    ("te.config", ("repro.te.config:TEConfiguration.__init__",)),
    ("te.mlu", ("repro.te.mlu:max_link_utilization",)),
    ("te.reroute", ("repro.te.failures:reroute_ratios_around_failures",)),
    ("evaluation.evaluate_scheme", ("repro.evaluation.engine:EvaluationEngine.evaluate_scheme",)),
    (
        "evaluation.evaluate_streaming",
        ("repro.evaluation.engine:EvaluationEngine.evaluate_streaming",),
    ),
    (
        "evaluation.failure_experiment",
        ("repro.evaluation.engine:EvaluationEngine.failure_experiment",),
    ),
    ("study.spec.expand", ("repro.study.spec:expand_spec",)),
    ("study.plan", ("repro.study.study:Study.plan",)),
    ("study.execute", ("repro.study.study:Study.execute",)),
    ("study.results.to_dict", ("repro.study.results:StudyResult.to_dict",)),
    ("study.checkpoint.append", ("repro.study.results:StudyCheckpoint.append",)),
    ("study.warehouse.append", ("repro.study.warehouse:ResultWarehouse.append",)),
    ("study.store.load", ("repro.study.results:JsonlRecordStore.load",)),
    ("study.warehouse.aggregate", ("repro.study.warehouse:ResultWarehouse.aggregate",)),
    ("study.warehouse.export_csv", ("repro.study.warehouse:ResultWarehouse.export_csv",)),
    # Opened by the service workload itself around one job (the daemon's
    # side of it is another process).
    ("study.client.submit", ()),
)

#: Spans that can enclose other spans of the table; these also report
#: ``<span>.total_s``.
SPANS_WITH_CHILDREN = frozenset(
    {
        "datasets.load",
        "core.fit",
        "core.teal_precompute",
        "solvers.cache.optimal_mlus",
        "solvers.lp.batch",
        "solvers.lp.solve",
        "solvers.lp_backend.solve",
        "solvers.lp_backend.solve_mlu",
        "scheme.configure_batch.neural",
        "scheme.configure_batch.lp",
        "scheme.configure",
        "evaluation.evaluate_scheme",
        "evaluation.evaluate_streaming",
        "evaluation.failure_experiment",
        "study.plan",
        "study.execute",
        "study.checkpoint.append",
        "study.warehouse.append",
        "study.warehouse.aggregate",
        "study.warehouse.export_csv",
    }
)

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the patching that feeds it.

    A span is ``(name, parent, phase, repetition, start, end)``; its id is
    its index in :attr:`spans`.  ``phase`` / ``repetition`` are whatever the
    workload set on the tracer before the call (which timed loop, which
    pass through it).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple | None] = []
        self.phase = ""
        self.repetition = -1
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._installed = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _begin(self) -> int:
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        return span_id

    def _end(self, span_id: int, name: str, start: float) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else -1
        self.spans[span_id] = (name, parent, self.phase, self.repetition, start, end)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span_id = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(span_id, name, start)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator does its work inside next(); the consumer's code
            # between two items is not the generator's time.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    span_id = self._begin()
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._end(span_id, name, start)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._begin()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span_id, name, start)

        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, wrapper, what was there)`` for every target."""
        targets = [
            (name, *target.partition(":")[::2])
            for name, group in SPAN_TABLE
            for target in group
        ]
        # Import everything first, so that the scan for holders of a
        # function below sees every module of the table.
        for _, module_name, _ in targets:
            importlib.import_module(module_name)
        plan = []

        def add(owner, attr: str, name: str, original) -> None:
            previous = vars(owner).get(attr, _MISSING)
            plan.append((owner, attr, self._wrap(name, original), previous))

        for name, module_name, path in targets:
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                # getattr (not vars): StudyCheckpoint.append is inherited,
                # and is wrapped on the subclass so that it stays apart
                # from the warehouse's.
                add(owner, attr, name, getattr(owner, attr))
                continue
            original = getattr(module, path)
            for holder_name, holder in list(sys.modules.items()):
                if holder is None or not holder_name.startswith("repro"):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        add(holder, attr, name, original)
        return plan

    def install(self) -> None:
        """Wrap every callable of :data:`SPAN_TABLE` (idempotent).

        The plan is built once, on first use: call it only after the
        program's lazy imports have happened (every workload runs an
        untraced warm-up first), or a module imported later would pick up
        a wrapper that :meth:`uninstall` cannot take back.
        """
        if self._installed:
            return
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, wrapper, _ in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        if not self._installed:
            return
        for owner, attr, _, previous in self._plan:
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._installed = False

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def aggregate(self, scale=None) -> dict[tuple[str, str], dict[str, float]]:
        """Per ``(phase, span name)``: call count, total and self seconds.

        Self time is a span's duration minus the part covered by its child
        spans (children of one parent never overlap: one thread).  With
        ``scale`` (repetition -> factor), ``total_s`` and ``self_s`` are
        multiplied by the span's repetition's factor; ``raw_self_s`` never is.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                covered[span[1]] += span[5] - span[4]
        rows: dict[tuple[str, str], dict[str, float]] = {}
        for span_id, span in enumerate(self.spans):
            if span is None:
                continue
            name, _, phase, repetition, start, end = span
            factor = scale.get(repetition, 1.0) if scale else 1.0
            row = rows.setdefault(
                (phase, name), {"count": 0, "total_s": 0.0, "self_s": 0.0, "raw_self_s": 0.0}
            )
            own = (end - start) - covered.get(span_id, 0.0)
            row["count"] += 1
            row["total_s"] += (end - start) * factor
            row["self_s"] += own * factor
            row["raw_self_s"] += own
        return rows

    def write(self, path) -> None:
        """Dump every span as ``{id, parent, name, workload, phase, repetition, start, end}``."""
        spans = [
            {
                "id": span_id,
                "parent": span[1],
                "name": span[0],
                "workload": self.workload,
                "phase": span[2],
                "repetition": span[3],
                "start": span[4],
                "end": span[5],
            }
            for span_id, span in enumerate(self.spans)
            if span is not None
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "spans": spans}, handle)
