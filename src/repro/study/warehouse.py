"""The results warehouse: a durable, queryable, append-only store of records.

A study grid produces thousands of cells (scenarios x schemes x
perturbations x seeds x repetitions); this module is where they accumulate
*across sessions*.  :class:`ResultWarehouse` is a
:class:`~repro.study.results.JsonlRecordStore` -- the one crash-safe store
of :mod:`repro.store` that :class:`~repro.study.results.StudyCheckpoint` and
the persistent :class:`~repro.solvers.lp.OptimalMLUCache` also write
through -- plus the analysis side:

* :meth:`~ResultWarehouse.query` filters by scenario / scheme / experiment
  and by suite provenance tags (``suite`` / ``study`` / ``seed`` /
  ``repetition`` / free-form annotations);
* :meth:`~ResultWarehouse.aggregate` groups records and reports each group's
  metric as mean +/- a Student-t confidence half-width over the group's
  records (seeds x repetitions), with percentile-MLU columns recomputed from
  the *pooled* stored series via
  :func:`~repro.evaluation.metrics.normalized_mlu_statistics`;
* :meth:`~ResultWarehouse.export_csv` writes a ``run_table``-style flat CSV
  (one row per record, provenance columns + the union of metric columns).

All of them, and :meth:`~ResultWarehouse.sync`, read through
:meth:`~ResultWarehouse.results`, which decodes the file once per file
state and instance: a query, an aggregate and an export of an unchanged
warehouse share one parse, and any store write in between (this
instance's or another writer's) is seen by the next call.  The records are
shared between those calls, so they are read-only.

Studies append finished cells in their commits (``Study.run(warehouse=...)``,
see :meth:`~repro.study.study.Study.execute`) and
:meth:`~ResultWarehouse.sync` reconciles a finished result set against the
store, so a crash between the checkpoint append and the warehouse append
can never lose a record permanently.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.evaluation.metrics import (
    mean_confidence_interval,
    normalized_mlu_statistics,
)
from repro.evaluation.reporting import format_table
from repro.study.results import (
    _DEFAULT_TABLE_METRICS,
    JsonlRecordStore,
    ResultSet,
    StudyResult,
    _matches,
)
from repro.study.spec import canonical_json

__all__ = ["ResultWarehouse", "WarehouseError"]


class WarehouseError(ValueError):
    """A warehouse file is corrupt, foreign, or version-incompatible.

    A :class:`ValueError` subclass so generic ``except ValueError`` callers
    keep working while the CLI can print one clean line instead of a
    traceback.
    """


#: On-disk format marker / version of the results warehouse (JSON lines).
WAREHOUSE_FORMAT = "repro-study-warehouse"
WAREHOUSE_VERSION = 1

#: Record columns resolved from suite provenance tags (in export order).
_TAG_COLUMNS = ("suite", "study", "seed", "repetition")

#: Record columns resolved from :class:`StudyResult` attributes.
_ATTR_COLUMNS = ("scenario", "scheme", "experiment")


def _column_value(record: StudyResult, column: str):
    """Resolve a group-by / export column on a record (attr, then tag)."""
    if column in _ATTR_COLUMNS:
        return getattr(record, column)
    return record.tags.get(column)


def _metric_columns(records: Iterable[StudyResult]) -> list[str]:
    """Union of metric names in canonical order (common columns first)."""
    present: set[str] = set()
    for record in records:
        present.update(record.metrics)
    ordered = [name for name in _DEFAULT_TABLE_METRICS if name in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


class ResultWarehouse(JsonlRecordStore):
    """Append-only, versioned on-disk store of study results across sessions.

    See the module docstring for the durability contract (shared with
    :class:`~repro.study.results.StudyCheckpoint`): complete records survive
    any crash, a torn trailing append is dropped with a warning (and
    compacted away by the next append, never by a read), and corrupt /
    foreign / version-mismatched files raise a
    :class:`WarehouseError` naming the path -- a warehouse holds finished
    science, so silently misreading one would be worse than stopping.
    """

    _format = WAREHOUSE_FORMAT
    _version = WAREHOUSE_VERSION
    _error = WarehouseError
    _kind = "results warehouse"
    _torn_tail_hint = "resume the interrupted study (or sync its results) to restore it"

    def __init__(self, path) -> None:
        super().__init__(path)
        # The file identity and records of the last parse (see results()).
        self._parsed: tuple[tuple[int, int, int, int], tuple[StudyResult, ...]] | None = None

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def results(self) -> ResultSet:
        """Every complete record as a :class:`ResultSet` (empty if missing).

        A *missing* file is an empty warehouse (the store is created lazily
        by the first append); anything unreadable raises
        :class:`WarehouseError` as described in the class docstring.

        The file is decoded once per file state: the records of the last
        :meth:`load` are kept with the ``(st_dev, st_ino, st_size,
        st_mtime_ns)`` that ``os.stat`` gave *before* that read, and a call
        that finds the same identity returns them again without reading.
        Any other state -- another writer's append, a :meth:`rewrite`, a
        torn-tail compaction -- is parsed afresh.  Each call returns a new
        list, but the :class:`StudyResult` records in it are shared with
        earlier and later calls on this instance: treat them as read-only.
        """
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            self._parsed = None
            return ResultSet()
        ident = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        parsed = self._parsed
        if parsed is None or parsed[0] != ident:
            parsed = self._parsed = (ident, tuple(self.load()))
        return ResultSet(parsed[1])

    def query(
        self,
        scenario=None,
        scheme=None,
        experiment=None,
        suite=None,
        study=None,
        seed=None,
        repetition=None,
        tags: Mapping | None = None,
        where=None,
    ) -> ResultSet:
        """Select records by labels and suite provenance.

        ``scenario`` / ``scheme`` / ``experiment`` match the record labels,
        ``suite`` / ``study`` / ``seed`` / ``repetition`` (and any extra
        ``tags``) match the cell's provenance tags.  Each selector is an
        exact value, a collection of values, or a callable; ``where`` sees
        the whole record.
        """
        tag_selectors = dict(tags or {})
        for name, selector in (
            ("suite", suite),
            ("study", study),
            ("seed", seed),
            ("repetition", repetition),
        ):
            if selector is not None:
                tag_selectors[name] = selector

        def _tags_match(record: StudyResult) -> bool:
            record_tags = record.tags
            return all(
                _matches(record_tags.get(name), selector)
                for name, selector in tag_selectors.items()
            ) and (where is None or where(record))

        return self.results().filter(scenario, scheme, experiment, where=_tags_match)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate(
        self,
        results: ResultSet | None = None,
        group_by: Sequence[str] = ("scenario", "scheme", "experiment"),
        metric: str = "mean",
        confidence: float = 0.95,
    ) -> list[dict]:
        """Group records and summarise each group's spread and distribution.

        Every group row carries:

        * the ``group_by`` columns (record attributes or provenance tags);
        * ``n`` -- the number of records pooled (seeds x repetitions when
          grouping collapses the suite axes);
        * ``<metric>`` / ``ci<level>`` -- the mean of the per-record
          ``metric`` values and its Student-t confidence half-width over the
          group (:func:`~repro.evaluation.metrics.mean_confidence_interval`);
        * ``p90`` / ``p99`` / ``worst`` / ``severe_congestion_fraction`` /
          ``num_samples`` -- recomputed by
          :func:`~repro.evaluation.metrics.normalized_mlu_statistics` over
          the group's pooled stored series (``None`` when no record of the
          group stored a series).

        Args:
            results: Records to aggregate (the whole warehouse if omitted --
                pass a :meth:`query` result to aggregate a slice).
            group_by: Column names; attributes (``scenario`` / ``scheme`` /
                ``experiment``) and tag keys (``suite`` / ``study`` /
                ``seed`` / ``repetition`` / annotations) mix freely.
            metric: The per-record metric summarised as mean +/- half-width.
            confidence: Two-sided confidence level of the half-width.
        """
        if results is None:
            results = self.results()
        groups: dict[tuple, list[StudyResult]] = {}
        for record in results:
            key = tuple(_column_value(record, column) for column in group_by)
            groups.setdefault(key, []).append(record)
        ci_column = f"ci{confidence * 100:g}"
        rows = []
        for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
            group = groups[key]
            row: dict = dict(zip(group_by, key))
            row["n"] = len(group)
            values = [record.metrics[metric] for record in group if metric in record.metrics]
            if values:
                row[metric], row[ci_column] = mean_confidence_interval(values, confidence)
            else:
                row[metric] = row[ci_column] = None
            pooled = [record.series for record in group if record.series is not None]
            if pooled:
                stats = normalized_mlu_statistics(np.concatenate(pooled))
                row["p90"] = stats.p90
                row["p99"] = stats.p99
                row["worst"] = stats.worst
                row["severe_congestion_fraction"] = stats.severe_congestion_fraction
                row["num_samples"] = stats.num_samples
            else:
                row["p90"] = row["p99"] = row["worst"] = None
                row["severe_congestion_fraction"] = row["num_samples"] = None
            rows.append(row)
        return rows

    def aggregate_table(
        self,
        results: ResultSet | None = None,
        group_by: Sequence[str] = ("scenario", "scheme", "experiment"),
        metric: str = "mean",
        confidence: float = 0.95,
        title: str | None = None,
    ) -> str:
        """Render :meth:`aggregate` rows as an aligned ASCII table, floats to 4 decimals."""
        rows = self.aggregate(results, group_by, metric, confidence)
        if not rows:
            headers = [*group_by, "n"]
            return format_table(headers, [], title=title)
        headers = list(rows[0])
        table_rows = []
        for row in rows:
            cells = []
            for name in headers:
                value = row[name]
                if isinstance(value, float):
                    cells.append(f"{value:.4f}")
                else:
                    cells.append("" if value is None else value)
            table_rows.append(cells)
        return format_table(headers, table_rows, title=title)

    # ------------------------------------------------------------------ #
    # Flat export
    # ------------------------------------------------------------------ #
    def run_table(
        self, results: ResultSet | None = None
    ) -> tuple[list[str], list[list]]:
        """One flat row per record: provenance columns + metric columns.

        The muBench-style ``run_table`` shape -- every cell of every study
        as one spreadsheet row, ready for pandas / gnuplot / a notebook.
        Returns ``(headers, rows)``; missing values are empty strings.
        """
        if results is None:
            results = self.results()
        metric_columns = _metric_columns(results)
        headers = [*_TAG_COLUMNS, *_ATTR_COLUMNS, *metric_columns]
        rows = []
        for record in results:
            tags, metrics = record.tags, record.metrics
            values = (
                *(tags.get(column) for column in _TAG_COLUMNS),
                *(getattr(record, column) for column in _ATTR_COLUMNS),
                *(metrics.get(name) for name in metric_columns),
            )
            rows.append(["" if value is None else value for value in values])
        return headers, rows

    def export_csv(self, path, results: ResultSet | None = None) -> int:
        """Write the :meth:`run_table` to ``path`` as CSV.

        Returns the number of data rows written (the header line is not
        counted), so callers can assert the export round-trips the record
        count.
        """
        headers, rows = self.run_table(results)
        path = Path(path).expanduser()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(headers)
            writer.writerows(rows)
        return len(rows)

    # ------------------------------------------------------------------ #
    # Reconciliation
    # ------------------------------------------------------------------ #
    def sync(self, results: Iterable[StudyResult]) -> int:
        """Append the records of ``results`` not already in the store.

        Records are matched by canonical spec provenance, counting
        duplicates -- if ``results`` holds two records of one provenance
        (deliberately duplicated cells), the store ends up with at least
        two.  Used after a resumed run: cells finished by a *previous*
        session were appended by that session, so only the ones lost in a
        crash window (checkpointed but not yet warehoused) are appended
        here.  Returns the number of records appended.
        """
        have = Counter(canonical_json(record.spec) for record in self.results())
        added = 0
        for record in results:
            key = canonical_json(record.spec)
            if have[key] > 0:
                have[key] -= 1
                continue
            self.append(record)
            added += 1
        return added
