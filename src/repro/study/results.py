"""Uniform study results: per-cell records with spec provenance.

Every executed cell produces one :class:`StudyResult` -- scenario / scheme /
experiment labels, the cell's plain-dict spec (provenance), a flat metrics
dict, and the normalised-MLU series.  A :class:`ResultSet` is the ordered
collection with filtering, table rendering (through
:mod:`repro.evaluation.reporting`) and a lossless JSON round-trip, so a grid
run can be stored next to the paper's tables and re-loaded for comparison.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.evaluation.metrics import MLUStatistics, normalized_mlu_statistics
from repro.evaluation.reporting import format_table
from repro.store import JsonlStore, atomic_write

__all__ = [
    "StudyResult",
    "ResultSet",
    "JsonlRecordStore",
    "StudyCheckpoint",
    "CheckpointError",
]


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, foreign, or version-incompatible.

    A :class:`ValueError` subclass so existing ``except ValueError`` callers
    keep working, while the CLI can distinguish checkpoint problems (clean
    one-line error) from cell failures (full traceback).
    """

#: On-disk format marker / version of serialized result sets.
RESULTSET_FORMAT = "repro-study-resultset"
RESULTSET_VERSION = 1

#: On-disk format marker / version of study checkpoints (JSON lines).
CHECKPOINT_FORMAT = "repro-study-checkpoint"
CHECKPOINT_VERSION = 1

#: Metric columns shown by :meth:`ResultSet.to_table` when present.
_DEFAULT_TABLE_METRICS = (
    "mean",
    "p90",
    "p99",
    "worst",
    "severe_congestion_fraction",
    "average_decline",
    "p90_decline",
)


@dataclass
class StudyResult:
    """Outcome of one experiment cell.

    Attributes:
        scenario: Scenario display name.
        scheme: Scheme display name (the spec's ``label`` when given).
        experiment: Cell kind: ``replay`` / ``fluctuation`` / ``failure`` /
            ``drift``.
        spec: JSON-safe provenance -- the cell spec that produced this record.
        metrics: Flat metric dict (normalised-MLU statistics, declines, ...).
        series: Per-interval normalised MLUs (``None`` for records loaded
            from trimmed JSON).
        result: The in-memory :class:`~repro.evaluation.engine.
            EvaluationResult` for replay-style cells (not serialized).
    """

    scenario: str
    scheme: str
    experiment: str
    spec: dict
    metrics: dict
    series: np.ndarray | None = None
    result: object | None = field(default=None, repr=False, compare=False)

    @property
    def tags(self) -> dict:
        """Free-form provenance tags carried by the cell spec.

        Suites stamp ``suite`` / ``study`` / ``seed`` / ``repetition`` (plus
        any annotations) in here; the warehouse filters, groups, and exports
        by these keys.
        """
        if isinstance(self.spec, dict):
            tags = self.spec.get("tags")
            if isinstance(tags, dict):
                return tags
        return {}

    @property
    def statistics(self) -> MLUStatistics:
        """Summary statistics recomputed from the stored series."""
        if self.series is None:
            raise ValueError("record has no stored series")
        return normalized_mlu_statistics(self.series)

    def to_dict(self) -> dict:
        record = {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "experiment": self.experiment,
            "spec": self.spec,
            "metrics": self.metrics,
        }
        if self.series is not None:
            record["series"] = np.asarray(self.series, dtype=float).tolist()
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "StudyResult":
        series = record.get("series")
        return cls(
            scenario=record["scenario"],
            scheme=record["scheme"],
            experiment=record["experiment"],
            spec=record.get("spec", {}),
            metrics=record.get("metrics", {}),
            series=np.asarray(series, dtype=float) if series is not None else None,
        )


def _matches(value, selector) -> bool:
    """The selector rule for record labels and tags.

    ``None`` selects every value; a callable is called on the value; a string
    or any other scalar must equal it; any other collection must contain it.
    """
    if selector is None:
        return True
    if callable(selector):
        return bool(selector(value))
    if isinstance(selector, str) or not isinstance(selector, Collection):
        return value == selector
    return value in selector


class ResultSet:
    """Ordered collection of :class:`StudyResult` records."""

    def __init__(self, results: Iterable[StudyResult] = ()) -> None:
        self.results: list[StudyResult] = list(results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[StudyResult]:
        return iter(self.results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.results[index])
        return self.results[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultSet({len(self.results)} records)"

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def filter(
        self,
        scenario=None,
        scheme=None,
        experiment=None,
        where: Callable[[StudyResult], bool] | None = None,
    ) -> "ResultSet":
        """Select records by scenario / scheme / experiment (and a predicate).

        Each selector is a string (exact match), a collection of strings, or
        a callable over the label; ``where`` sees the whole record.
        """
        selected = [
            record
            for record in self.results
            if _matches(record.scenario, scenario)
            and _matches(record.scheme, scheme)
            and _matches(record.experiment, experiment)
            and (where is None or where(record))
        ]
        return ResultSet(selected)

    def only(self, **selectors) -> StudyResult:
        """The single record matching the selectors (raise otherwise)."""
        matches = self.filter(**selectors)
        if len(matches) != 1:
            raise ValueError(f"expected exactly one matching record, found {len(matches)}")
        return matches[0]

    def scheme_statistics(self, scenario=None) -> dict[str, MLUStatistics]:
        """Per-scheme statistics of the plain-replay records (Figure 5 style)."""
        return {
            record.scheme: record.statistics
            for record in self.filter(scenario=scenario, experiment="replay")
            if record.series is not None
        }

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_table(
        self,
        metrics: Sequence[str] | None = None,
        title: str | None = None,
    ) -> str:
        """Render the records as an aligned ASCII table, floats to 3 decimals.

        Args:
            metrics: Metric columns; defaults to the common ones present in
                at least one record, in canonical order.
            title: Optional table title.
        """
        if metrics is None:
            present = set()
            for record in self.results:
                present.update(record.metrics)
            metrics = [name for name in _DEFAULT_TABLE_METRICS if name in present]
        headers = ["scenario", "scheme", "experiment", *metrics]
        rows = []
        for record in self.results:
            row: list[object] = [record.scenario, record.scheme, record.experiment]
            for name in metrics:
                value = record.metrics.get(name)
                if isinstance(value, float):
                    row.append(f"{value:.3f}")
                else:
                    row.append("" if value is None else value)
            rows.append(row)
        return format_table(headers, rows, title=title)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Serialize to indented JSON (spec provenance and series included)."""
        payload = {
            "format": RESULTSET_FORMAT,
            "version": RESULTSET_VERSION,
            "results": [record.to_dict() for record in self.results],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a result set from :meth:`to_json` output."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != RESULTSET_FORMAT:
            raise ValueError("not a repro study result-set document")
        if payload.get("version") != RESULTSET_VERSION:
            raise ValueError(
                f"unsupported result-set version {payload.get('version')!r} "
                f"(this build reads version {RESULTSET_VERSION})"
            )
        results = payload.get("results")
        if not isinstance(results, list):
            # A correct header with a missing/mangled body is corruption, not
            # an empty result set: silently returning zero records would make
            # a truncated file look like a study that produced nothing.
            raise ValueError(
                "corrupt result-set document: 'results' is "
                f"{type(results).__name__ if results is not None else 'missing'}, "
                "expected a list of records"
            )
        return cls(StudyResult.from_dict(record) for record in results)

    def save(self, path) -> Path:
        """Write :meth:`to_json` output to ``path`` atomically and durably.

        Through :func:`repro.store.atomic_write`: a crash at any point leaves
        either the previous file or the complete new one, never a truncated
        document that a later :meth:`load` (or a study resume) would choke
        on.  Parent directories are created as needed.
        """
        path = Path(path).expanduser()
        atomic_write(path, [self.to_json(), "\n"])
        return path

    @classmethod
    def load(cls, path) -> "ResultSet":
        """Read a result set saved with :meth:`save`.

        Raises:
            ValueError: On malformed content, naming the offending path (a
                bare JSON traceback would not say *which* file is broken).
        """
        path = Path(path).expanduser()
        text = path.read_text(encoding="utf-8")
        try:
            return cls.from_json(text)
        except (json.JSONDecodeError, ValueError) as exc:
            raise ValueError(f"could not read result set {path}: {exc}") from exc


class JsonlRecordStore(JsonlStore):
    """A :class:`~repro.store.JsonlStore` of :class:`StudyResult` records.

    The study layer's persistence idiom (checkpoints, the results warehouse):
    one :meth:`StudyResult.to_dict` record per line, series included, under
    the store's crash contract.
    """

    def _encode(self, record: StudyResult) -> dict:
        return record.to_dict()

    def _decode(self, payload: dict) -> StudyResult:
        return StudyResult.from_dict(payload)


class StudyCheckpoint(JsonlRecordStore):
    """Crash-safe, append-only store of finished study cells.

    A :class:`JsonlRecordStore` whose records are the finished cells of one
    study run: a fully appended record means that cell is done and will be
    skipped by :meth:`repro.study.Study.resume`; a torn trailing record is
    dropped (its cell simply re-runs); corrupt or foreign files raise a
    :class:`CheckpointError` naming the path and line.
    """

    _format = CHECKPOINT_FORMAT
    _version = CHECKPOINT_VERSION
    _error = CheckpointError
    _kind = "study checkpoint"
    _torn_tail_hint = "its cell will re-run"
