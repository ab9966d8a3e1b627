"""Declarative experiment-spec API: studies over scenarios x schemes x perturbations.

The paper's evaluation is a grid -- topologies x traffic models x schemes x
perturbation/failure profiles.  This package exposes that grid as data: an
:class:`ExperimentSpec` describes one cell with plain dicts, :class:`sweep`
marks grid axes, :class:`Study` expands and executes the grid (deduplicating
scenario builds, scheme trainings, replays, configurations and LP
normaliser solves), and :class:`ResultSet` collects uniform records with spec
provenance and a lossless JSON round-trip.

>>> from repro.study import Study, sweep
>>> results = Study({
...     "scenario": sweep("geant_small", "pfabric_small"),
...     "scheme": sweep({"kind": "figret"}, {"kind": "dote"}),
...     "perturbation": sweep({"kind": "none"},
...                           {"kind": "fluctuation", "alpha": 1.0}),
...     "max_intervals": 30,
... }).run()
>>> print(results.to_table())

Long grids are crash-safe: ``Study.run(checkpoint=path)`` appends every
finished cell to an on-disk :class:`StudyCheckpoint` and
``Study.resume(path)`` restarts an interrupted grid where it died (zero
repeat trainings or LP solves for finished cells).  Cells run one at a time
in the calling process.

Above single studies sits the *suite* layer: a suite descriptor declares
studies x seeds x repetitions x free-form annotations as one plain dict
(:func:`expand_suite`), and :class:`Study` tells it from a study spec by
its keys -- ``Study(descriptor)`` runs the expanded cells with suite
provenance stamped into their tags.  A :class:`ResultWarehouse` -- a
durable, append-only JSONL store -- accumulates finished cells across
sessions with filtering
(:meth:`~repro.study.warehouse.ResultWarehouse.query`), repetition/seed
aggregation with confidence intervals
(:meth:`~repro.study.warehouse.ResultWarehouse.aggregate`), and a flat CSV
export (:meth:`~repro.study.warehouse.ResultWarehouse.export_csv`).

Run a JSON study spec or suite descriptor from the shell with ``python -m
repro.study doc.json`` (``--checkpoint`` / ``--resume`` / ``--warehouse``
expose the same knobs); ``python -m repro.study query |
export`` analyze a warehouse.

For long-lived workloads the *study service* keeps the runner warm:
``python -m repro.study serve`` starts a Unix-socket daemon
(:class:`StudyServer`) with a FIFO job queue, whose jobs run their cells
one at a time, and one process-wide LP cache, scenario cache, and
trained-scheme store shared across every submitted job, so identical or
overlapping grids from any client (:class:`StudyClient`, or
``submit``/``status``/``cancel`` from the shell) re-run with zero repeat
LP solves or trainings.  Underneath,
``Study.run`` is a facade over :meth:`Study.plan` +
:meth:`Study.execute` -- the scheduler-owns-the-loop split the daemon
(and any notebook) builds on.
"""

from repro.study.client import JobOutcome, StudyClient, StudyServiceError
from repro.study.results import (
    CheckpointError,
    JsonlRecordStore,
    ResultSet,
    StudyCheckpoint,
    StudyResult,
)
from repro.study.spec import (
    ExperimentSpec,
    InlineScenario,
    available_schemes,
    build_scheme,
    expand_spec,
    register_scheme,
    sweep,
)
from repro.study.server import StudyServer
from repro.study.study import Study, StudyCancelled, StudyPlan
from repro.study.suite import expand_suite
from repro.study.warehouse import ResultWarehouse, WarehouseError

__all__ = [
    "Study",
    "StudyCancelled",
    "StudyPlan",
    "StudyServer",
    "StudyClient",
    "StudyServiceError",
    "JobOutcome",
    "expand_suite",
    "ExperimentSpec",
    "InlineScenario",
    "CheckpointError",
    "ResultSet",
    "JsonlRecordStore",
    "ResultWarehouse",
    "StudyCheckpoint",
    "StudyResult",
    "WarehouseError",
    "sweep",
    "expand_spec",
    "register_scheme",
    "available_schemes",
    "build_scheme",
]
