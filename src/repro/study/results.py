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
import os
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.evaluation.metrics import MLUStatistics, normalized_mlu_statistics
from repro.evaluation.reporting import format_table

__all__ = [
    "StudyResult",
    "ResultSet",
    "JsonlRecordStore",
    "StudyCheckpoint",
    "CheckpointError",
]


def fsync_directory(path: Path) -> None:
    """Flush a directory entry to disk (best effort).

    After an ``os.replace`` (or a first append creating a file), the *file*
    contents are durable once fsynced, but the directory entry pointing at
    them is not until the directory itself is synced -- a crash could roll
    the rename back.  Platforms without directory fds (or filesystems that
    refuse to fsync them) are silently tolerated; durability degrades to
    what the platform offers.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


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

    def to_dict(self, include_series: bool = True) -> dict:
        record = {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "experiment": self.experiment,
            "spec": self.spec,
            "metrics": self.metrics,
        }
        if include_series and self.series is not None:
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


def _matches(value: str, selector) -> bool:
    if selector is None:
        return True
    if callable(selector):
        return bool(selector(value))
    if isinstance(selector, str):
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
        float_format: str = "{:.3f}",
    ) -> str:
        """Render the records as an aligned ASCII table.

        Args:
            metrics: Metric columns; defaults to the common ones present in
                at least one record, in canonical order.
            title: Optional table title.
            float_format: Format applied to float metric values.
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
                    row.append(float_format.format(value))
                else:
                    row.append("" if value is None else value)
            rows.append(row)
        return format_table(headers, rows, title=title)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_json(self, indent: int | None = 2, include_series: bool = True) -> str:
        """Serialize to JSON (spec provenance and series included)."""
        payload = {
            "format": RESULTSET_FORMAT,
            "version": RESULTSET_VERSION,
            "results": [record.to_dict(include_series=include_series) for record in self.results],
        }
        return json.dumps(payload, indent=indent)

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

        The document is written to a temp file in the same directory,
        flushed and fsynced, and moved into place with :func:`os.replace`
        (followed by a directory fsync), so a crash at any point leaves
        either the previous file or the complete new one -- never a
        truncated document that a later :meth:`load` (or a study resume)
        would choke on, and never a rename the filesystem quietly rolls
        back.  Parent directories are created as needed.
        """
        path = Path(path).expanduser()
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        fsync_directory(path.parent)
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


class JsonlRecordStore:
    """Crash-safe, append-only JSON-lines store of :class:`StudyResult` records.

    The shared persistence idiom of the study layer (checkpoints, the results
    warehouse): a versioned header line followed by one
    :meth:`StudyResult.to_dict` record per line.  The header is created
    atomically (temp file + :func:`os.replace` + directory fsync) and every
    record is appended as a single flushed+fsynced write, so the store is
    readable after a crash or Ctrl-C at any point:

    * a fully appended record is durable and complete;
    * a partially appended trailing record (crash mid-write) is dropped with
      a warning and the file is compacted (atomically) so later appends never
      concatenate onto the torn line; a complete trailing record that lost
      only its newline is kept, and terminated by the next append;
    * anything else that fails to parse (a corrupt header, junk mid-file)
      raises the store's error class naming the path and line, because
      silently dropping finished work -- or treating foreign files as this
      store's -- would be worse than stopping.

    Subclasses pin the on-disk identity via ``_format`` / ``_version`` /
    ``_error`` and the human noun used in messages via ``_kind`` /
    ``_torn_tail_hint``.
    """

    #: On-disk format marker (subclasses must override).
    _format = ""
    #: On-disk format version (bump to invalidate existing files).
    _version = 0
    #: Error raised on corrupt / foreign / version-mismatched files.
    _error: type[ValueError] = ValueError
    #: Human name used in error and warning messages.
    _kind = "record store"
    #: Appended to the torn-tail warning (what dropping the record means).
    _torn_tail_hint = "the interrupted append must be retried"

    def __init__(self, path) -> None:
        self.path = Path(path).expanduser()

    def exists(self) -> bool:
        """Whether the checkpoint file is already on disk."""
        return self.path.exists()

    def _needs_header(self) -> bool:
        """True when appending would need the header written first.

        Covers both a missing file and a pre-existing *empty* one (e.g. a
        ``touch``-ed path): appending records without a header would leave a
        file no later :meth:`load` accepts.
        """
        try:
            return self.path.stat().st_size == 0
        except FileNotFoundError:
            return True

    def create(self) -> None:
        """Write a fresh store containing only the header (atomic)."""
        self._rewrite([])

    def _rewrite(self, records: Sequence[StudyResult]) -> None:
        """Atomically + durably replace the file with header + the records."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_name(self.path.name + ".tmp")
        header = {"format": self._format, "version": self._version}
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for record in records:
                handle.write(json.dumps(record.to_dict(include_series=True)) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        fsync_directory(self.path.parent)

    def _ends_mid_line(self) -> bool:
        """True when the (non-empty) file's last byte is not a newline."""
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"

    def append(self, record: StudyResult) -> None:
        """Append one record (one flushed+fsynced line).

        An append never lands on an unterminated line: a crash between a
        record's bytes and its newline leaves a complete last record that the
        next one would be concatenated onto, and the merged line would then
        read as a torn tail -- two finished records dropped.  Such a file is
        first rewritten from what :meth:`load` reads of it (complete last
        record kept, torn one dropped).
        """
        if self._needs_header():
            self.create()
        elif self._ends_mid_line():
            self._rewrite(self.load())
        line = json.dumps(record.to_dict(include_series=True))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self.path.parent)

    def extend(self, records: Iterable[StudyResult]) -> None:
        """Append several records (each its own crash-safe line)."""
        for record in records:
            self.append(record)

    def load(self) -> list[StudyResult]:
        """Read every complete record (see the class docstring for errors)."""
        text = self.path.read_text(encoding="utf-8")
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return []
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise self._error(
                f"corrupt {self._kind} {self.path}: unreadable header ({exc})"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != self._format:
            raise self._error(
                f"{self.path} is not a {self._kind} (expected a "
                f"{self._format!r} header)"
            )
        if header.get("version") != self._version:
            raise self._error(
                f"unsupported {self._kind} version {header.get('version')!r} in "
                f"{self.path} (this build reads version {self._version})"
            )
        records: list[StudyResult] = []
        torn_tail = False
        for number, line in enumerate(lines[1:], start=2):
            try:
                payload = json.loads(line)
                record = StudyResult.from_dict(payload)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                # Only a JSON decode failure on the *last* line can be a
                # crash-truncated append; a well-formed JSON line that is
                # not a valid record (hand edit, writer bug) is corruption
                # wherever it sits -- deleting it via the torn-tail
                # compaction would silently destroy data.
                if number == len(lines) and isinstance(exc, json.JSONDecodeError):
                    warnings.warn(
                        f"{self._kind} {self.path}: dropping partially "
                        "written trailing record (interrupted mid-append); "
                        f"{self._torn_tail_hint}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    torn_tail = True
                    break
                raise self._error(
                    f"corrupt {self._kind} {self.path}: unreadable record "
                    f"on line {number} ({exc})"
                ) from exc
            records.append(record)
        if torn_tail:
            # Compact the file so a later append starts on a clean line
            # instead of concatenating onto the torn one.
            self._rewrite(records)
        return records


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
