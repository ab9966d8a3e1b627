"""Coverage for the results warehouse: durability, querying, aggregation."""

from __future__ import annotations

import csv
import json
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import (
    mean_confidence_interval,
    normalized_mlu_statistics,
)
from repro.study import (
    ExperimentSpec,
    ResultSet,
    ResultWarehouse,
    StudyCheckpoint,
    StudyResult,
    WarehouseError,
)
from repro.study.__main__ import main as study_cli
from repro.study.results import JsonlRecordStore
from repro.study.spec import canonical_json


def _record(
    scenario="geant_small",
    scheme="FIGRET",
    experiment="replay",
    tags=None,
    metrics=None,
    series=(1.0, 1.5, 2.0),
    **spec_extra,
):
    spec = {"scenario": scenario, "max_intervals": 3, **spec_extra}
    if tags is not None:
        spec["tags"] = dict(tags)
    return StudyResult(
        scenario=scenario,
        scheme=scheme,
        experiment=experiment,
        spec=spec,
        metrics=dict(metrics or {"mean": 1.25, "p90": 1.9}),
        series=None if series is None else np.asarray(series, dtype=float),
    )


# --------------------------------------------------------------------------- #
# Append / load round-trip and durability
# --------------------------------------------------------------------------- #
class TestWarehouseStore:
    def test_missing_file_is_an_empty_warehouse(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        assert not store.exists()
        assert len(store.results()) == 0

    def test_append_then_load_round_trips(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        records = [
            _record(scheme="FIGRET", tags={"suite": "s", "repetition": 0}),
            _record(scheme="DOTE", tags={"suite": "s", "repetition": 1}, series=None),
        ]
        store.extend(records)
        loaded = store.results()
        assert len(loaded) == 2
        for before, after in zip(records, loaded):
            assert after.scheme == before.scheme
            assert after.spec == before.spec
            assert after.metrics == before.metrics
            if before.series is None:
                assert after.series is None
            else:
                np.testing.assert_array_equal(after.series, before.series)

    def test_append_creates_parent_directories_and_header(self, tmp_path):
        path = tmp_path / "a" / "b" / "wh.jsonl"
        ResultWarehouse(path).append(_record())
        first = path.read_text().splitlines()[0]
        header = json.loads(first)
        assert header["format"] == "repro-study-warehouse"
        assert header["version"] == 1

    def test_appends_accumulate_across_store_instances(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        ResultWarehouse(path).append(_record(scheme="A"))
        ResultWarehouse(path).append(_record(scheme="B"))
        assert [r.scheme for r in ResultWarehouse(path).results()] == ["A", "B"]

    def test_torn_trailing_record_is_dropped_and_compacted(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        store = ResultWarehouse(path)
        store.append(_record(scheme="KEPT"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scenario": "half-writ')
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            loaded = store.results()
        assert [r.scheme for r in loaded] == ["KEPT"]
        # The read left the file alone; the next append compacts it first
        # (dropping the torn line from disk), so it lands cleanly.
        assert path.read_text().endswith('"half-writ')
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            store.append(_record(scheme="NEXT"))
        assert [r.scheme for r in store.results()] == ["KEPT", "NEXT"]

    @pytest.mark.parametrize("store_class", [ResultWarehouse, StudyCheckpoint])
    def test_append_never_lands_on_an_unterminated_line(
        self, tmp_path, store_class, recwarn
    ):
        """A crash between a record's bytes and its newline loses nothing:
        the next append must not merge with the complete last record (the
        merged line would read as a torn tail and drop both)."""
        path = tmp_path / "store.jsonl"
        store = store_class(path)
        store.extend([_record(scheme="A"), _record(scheme="B")])
        data = path.read_bytes()
        assert data.endswith(b"}\n")
        path.write_bytes(data[:-1])
        store.append(_record(scheme="C"))
        assert [r.scheme for r in store.load()] == ["A", "B", "C"]
        assert not recwarn.list
        # A torn tail met by an append (no load in between) costs only itself.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scenario": "half-writ')
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            store.append(_record(scheme="D"))
        assert [r.scheme for r in store.load()] == ["A", "B", "C", "D"]

    def test_foreign_file_raises_warehouse_error(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(WarehouseError, match="is not a results warehouse"):
            ResultWarehouse(path).results()

    def test_version_mismatch_raises_warehouse_error(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        path.write_text('{"format": "repro-study-warehouse", "version": 99}\n')
        with pytest.raises(WarehouseError, match="unsupported results warehouse version 99"):
            ResultWarehouse(path).results()

    def test_corrupt_mid_file_record_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        store = ResultWarehouse(path)
        store.append(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        store_text = path.read_text()
        store.path.write_text(store_text + json.dumps(_record().to_dict()) + "\n")
        with pytest.raises(WarehouseError, match="line 3"):
            store.results()

    def test_warehouse_error_is_a_value_error(self):
        assert issubclass(WarehouseError, ValueError)


# --------------------------------------------------------------------------- #
# Read contract: one parse per file state per instance
# --------------------------------------------------------------------------- #
class TestWarehouseReadContract:
    @pytest.fixture()
    def loads(self, monkeypatch):
        """Count the parses of every record store (the ``load`` calls)."""
        calls = []
        original = JsonlRecordStore.load

        def spy(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(JsonlRecordStore, "load", spy)
        return calls

    def test_analysis_calls_share_one_parse(self, tmp_path, loads):
        path = tmp_path / "wh.jsonl"
        ResultWarehouse(path).extend(
            _record(scheme=scheme, tags={"seed": seed}) for scheme in ("A", "B") for seed in (0, 1)
        )
        store = ResultWarehouse(path)
        assert len(store.query(scheme="A")) == 2
        assert len(store.aggregate(group_by=("scheme",))) == 2
        assert store.export_csv(tmp_path / "rows.csv") == 4
        assert store.sync([]) == 0
        assert loads == [path]

    def test_next_call_sees_appends_rewrites_and_deletion(self, tmp_path, loads):
        path = tmp_path / "wh.jsonl"
        store = ResultWarehouse(path)
        store.append(_record(scheme="A"))
        assert [r.scheme for r in store.results()] == ["A"]
        ResultWarehouse(path).append(_record(scheme="B"))
        assert [r.scheme for r in store.results()] == ["A", "B"]
        ResultWarehouse(path).rewrite([_record(scheme="C")])
        assert [r.scheme for r in store.results()] == ["C"]
        assert [r.scheme for r in store.results()] == ["C"]
        path.unlink()
        assert len(store.results()) == 0
        assert len(loads) == 3

    def test_editing_a_returned_set_leaves_the_next_call_alone(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.extend([_record(scheme="A"), _record(scheme="B")])
        first = store.results()
        first.results.pop()
        first.results.append(_record(scheme="Z"))
        assert [r.scheme for r in store.results()] == ["A", "B"]
        assert [r.scheme for r in first] == ["A", "Z"]

    def test_torn_tail_warns_on_the_parse_that_drops_it(self, tmp_path, recwarn):
        path = tmp_path / "wh.jsonl"
        store = ResultWarehouse(path)
        store.append(_record(scheme="KEPT"))
        assert [r.scheme for r in store.results()] == ["KEPT"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scenario": "half-writ')
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            assert [r.scheme for r in store.results()] == ["KEPT"]
        recwarn.clear()
        assert [r.scheme for r in store.results()] == ["KEPT"]
        assert not recwarn.list

    def test_table_query_aggregates_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "wh.jsonl"
        ResultWarehouse(path).extend([_record(scheme="A"), _record(scheme="B")])
        calls = []
        original = ResultWarehouse.aggregate

        def spy(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ResultWarehouse, "aggregate", spy)
        assert study_cli(["query", str(path), "--group-by", "scheme"]) == 0
        assert "2 record(s) match" in capsys.readouterr().out
        assert len(calls) == 1


# --------------------------------------------------------------------------- #
# Canonical provenance strings (dedup, checkpoint and sync keys)
# --------------------------------------------------------------------------- #
class TestCanonicalJson:
    def test_spec_values_canonicalise_to_pinned_strings(self):
        value = {
            "tuple": (1, (2.5, "x"), [True, None]),
            "scalars": [np.float64(0.1), np.int64(7), np.bool_(True), np.str_("s"), np.float32(0.5)],
            "arrays": [np.arange(3), np.array([[0.25, 1.0]]), np.array([], dtype=float)],
            "mappings": OrderedDict([("b", MappingProxyType({"z": (1,), 2: "int key"})), ("a", {})]),
            "plain": {"nested": {"deep": [1, {"k": -0.0}]}, "big": 10**20, "f": 1e-300},
        }
        assert canonical_json(value) == (
            '{"arrays":[[0,1,2],[[0.25,1.0]],[]],"mappings":{"a":{},"b":{"2":"int key","z":[1]}},'
            '"plain":{"big":100000000000000000000,"f":1e-300,"nested":{"deep":[1,{"k":-0.0}]}},'
            '"scalars":[0.1,7,true,"s",0.5],"tuple":[1,[2.5,"x"],[true,null]]}'
        )

    def test_cell_provenance_key_is_the_pinned_string(self):
        cell = ExperimentSpec(
            scenario=OrderedDict(name="geant_small", seed=np.int64(3)),
            scheme={"kind": "figret", "hidden": (64, 32), "learning_rate": np.float64(1e-3), "label": "F"},
            perturbation=MappingProxyType(
                {"kind": "fluctuation", "alpha": np.float32(1.5), "seed": np.int64(2)}
            ),
            max_intervals=np.int64(5),
            tags=MappingProxyType(
                {"suite": "pin", "seed": np.int64(1), "grid": np.array([1, 2]), "opts": OrderedDict(x=(None,))}
            ),
        )
        pinned = (
            '{"max_intervals":5,"perturbation":{"alpha":1.5,"kind":"fluctuation","seed":2,"worst_case":false},'
            '"scenario":{"name":"geant_small","seed":3},'
            '"scheme":{"hidden":[64,32],"kind":"figret","label":"F","learning_rate":0.001},'
            '"tags":{"grid":[1,2],"opts":{"x":[null]},"seed":1,"suite":"pin"}}'
        )
        assert cell.provenance_key == pinned
        assert canonical_json(cell.to_dict()) == pinned

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", {"k": [object()]}])
    def test_non_json_values_raise(self, bad):
        with pytest.raises(TypeError, match="not JSON-serialisable"):
            canonical_json(bad)


# --------------------------------------------------------------------------- #
# sync (reconciliation)
# --------------------------------------------------------------------------- #
class TestWarehouseSync:
    def test_sync_appends_only_missing_records(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        first, second = _record(scheme="A"), _record(scheme="B")
        store.append(first)
        added = store.sync(ResultSet([first, second]))
        assert added == 1
        assert [r.scheme for r in store.results()] == ["A", "B"]

    def test_sync_is_idempotent(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        results = ResultSet([_record(scheme="A"), _record(scheme="B")])
        assert store.sync(results) == 2
        assert store.sync(results) == 0
        assert len(store.results()) == 2

    def test_sync_counts_duplicate_provenance(self, tmp_path):
        # Two records with identical specs (e.g. repetitions whose tags were
        # stripped) are matched by multiplicity, not collapsed into one.
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        twin = _record(scheme="A")
        assert store.sync(ResultSet([twin, twin])) == 2
        assert store.sync(ResultSet([twin, twin])) == 0
        assert len(store.results()) == 2

    def test_sync_into_fresh_store_writes_everything(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        assert store.sync(ResultSet([_record()])) == 1
        assert store.exists()


# --------------------------------------------------------------------------- #
# query
# --------------------------------------------------------------------------- #
class TestWarehouseQuery:
    @pytest.fixture()
    def store(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        for scheme in ("FIGRET", "DOTE"):
            for seed in (0, 1):
                for repetition in (0, 1):
                    store.append(
                        _record(
                            scheme=scheme,
                            tags={
                                "suite": "campaign",
                                "study": "replay",
                                "seed": seed,
                                "repetition": repetition,
                                "machine": "box-2",
                            },
                        )
                    )
        return store

    def test_no_filters_returns_everything(self, store):
        assert len(store.query()) == 8

    def test_label_and_tag_filters_combine(self, store):
        assert len(store.query(scheme="FIGRET")) == 4
        assert len(store.query(scheme="FIGRET", seed=1)) == 2
        assert len(store.query(scheme="FIGRET", seed=1, repetition=0)) == 1
        assert len(store.query(suite="other")) == 0

    def test_collection_and_callable_selectors(self, store):
        assert len(store.query(scheme=["FIGRET", "DOTE"], seed=[0])) == 4
        assert len(store.query(seed=lambda value: value == 0)) == 4

    def test_free_form_tag_and_where_filters(self, store):
        assert len(store.query(tags={"machine": "box-2"})) == 8
        assert len(store.query(tags={"machine": "box-9"})) == 0
        assert len(store.query(where=lambda r: r.tags["repetition"] == 1)) == 4

    def test_query_returns_result_set(self, store):
        assert isinstance(store.query(scheme="DOTE"), ResultSet)


# --------------------------------------------------------------------------- #
# aggregate
# --------------------------------------------------------------------------- #
class TestWarehouseAggregate:
    def _store_with_groups(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        self.series = {
            "FIGRET": [np.array([1.0, 1.1, 1.2, 1.3]), np.array([1.05, 1.15, 1.5, 2.4])],
            "DOTE": [np.array([1.2, 1.4, 1.6, 3.0]), np.array([1.1, 1.3, 1.7, 2.2])],
        }
        self.means = {"FIGRET": [1.15, 1.43], "DOTE": [1.8, 1.58]}
        for scheme, series_list in self.series.items():
            for repetition, series in enumerate(series_list):
                store.append(
                    _record(
                        scheme=scheme,
                        tags={"repetition": repetition},
                        metrics={"mean": self.means[scheme][repetition]},
                        series=series,
                    )
                )
        return store

    def test_mean_and_ci_match_mean_confidence_interval(self, tmp_path):
        store = self._store_with_groups(tmp_path)
        rows = {row["scheme"]: row for row in store.aggregate(group_by=("scheme",))}
        for scheme, values in self.means.items():
            expected_mean, expected_ci = mean_confidence_interval(values, 0.95)
            assert rows[scheme]["n"] == 2
            assert rows[scheme]["mean"] == pytest.approx(expected_mean)
            assert rows[scheme]["ci95"] == pytest.approx(expected_ci)

    def test_percentiles_match_pooled_series_recomputation(self, tmp_path):
        # The acceptance contract: p90/p99 columns equal
        # normalized_mlu_statistics recomputed from the stored series.
        store = self._store_with_groups(tmp_path)
        rows = {row["scheme"]: row for row in store.aggregate(group_by=("scheme",))}
        for scheme, series_list in self.series.items():
            stats = normalized_mlu_statistics(np.concatenate(series_list))
            assert rows[scheme]["p90"] == pytest.approx(stats.p90)
            assert rows[scheme]["p99"] == pytest.approx(stats.p99)
            assert rows[scheme]["worst"] == pytest.approx(stats.worst)
            assert rows[scheme]["severe_congestion_fraction"] == pytest.approx(
                stats.severe_congestion_fraction
            )
            assert rows[scheme]["num_samples"] == stats.num_samples

    def test_single_record_group_has_zero_half_width(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.append(_record(metrics={"mean": 1.5}))
        (row,) = store.aggregate(group_by=("scheme",))
        assert row["n"] == 1
        assert row["mean"] == pytest.approx(1.5)
        assert row["ci95"] == 0.0

    def test_confidence_level_names_the_ci_column(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.extend([_record(metrics={"mean": 1.0}), _record(metrics={"mean": 2.0})])
        (row,) = store.aggregate(group_by=("scheme",), confidence=0.99)
        assert "ci99" in row
        narrower = store.aggregate(group_by=("scheme",), confidence=0.5)[0]["ci50"]
        assert narrower < row["ci99"]
        # A level between whole percents keeps its digits, not a rounded name.
        (row,) = store.aggregate(group_by=("scheme",), confidence=0.975)
        assert "ci97.5" in row

    def test_group_by_tag_columns(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        for seed in (0, 1):
            for repetition in (0, 1):
                store.append(
                    _record(tags={"seed": seed, "repetition": repetition},
                            metrics={"mean": 1.0 + seed})
                )
        rows = store.aggregate(group_by=("scenario", "seed"))
        assert [(row["seed"], row["n"]) for row in rows] == [(0, 2), (1, 2)]

    def test_missing_metric_and_series_yield_none(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.append(_record(metrics={"p90": 2.0}, series=None))
        (row,) = store.aggregate(group_by=("scheme",), metric="mean")
        assert row["mean"] is None and row["ci95"] is None
        assert row["p90"] is None and row["num_samples"] is None

    def test_aggregate_table_renders(self, tmp_path):
        store = self._store_with_groups(tmp_path)
        table = store.aggregate_table(group_by=("scheme",), title="agg")
        lines = table.splitlines()
        assert lines[0] == "agg"
        assert lines[1].startswith("scheme")
        assert len(lines) == 5  # title + header + rule + two groups

    def test_aggregate_empty_store(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        assert store.aggregate() == []
        assert "n" in store.aggregate_table()


# --------------------------------------------------------------------------- #
# run_table / CSV export
# --------------------------------------------------------------------------- #
class TestWarehouseExport:
    def test_run_table_headers_and_missing_values(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.append(_record(tags={"suite": "s", "study": "t", "repetition": 0},
                             metrics={"mean": 1.0}))
        store.append(_record(metrics={"mean": 2.0, "p99": 3.0}))
        headers, rows = store.run_table()
        assert headers[:7] == [
            "suite", "study", "seed", "repetition", "scenario", "scheme", "experiment",
        ]
        assert "mean" in headers and "p99" in headers
        assert len(rows) == 2
        untagged = rows[1]
        assert untagged[headers.index("suite")] == ""
        assert untagged[headers.index("p99")] == 3.0
        assert rows[0][headers.index("p99")] == ""

    def test_export_csv_round_trips_row_count(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.extend(_record(tags={"repetition": i}, metrics={"mean": 1.0 + i})
                     for i in range(5))
        out = tmp_path / "export" / "table.csv"
        assert store.export_csv(out) == 5
        with open(out, newline="") as handle:
            read_rows = list(csv.reader(handle))
        assert len(read_rows) == 1 + 5
        assert read_rows[0][:4] == ["suite", "study", "seed", "repetition"]
        mean_column = read_rows[0].index("mean")
        assert [row[mean_column] for row in read_rows[1:]] == [
            "1.0", "2.0", "3.0", "4.0", "5.0",
        ]

    def test_export_csv_of_query_slice(self, tmp_path):
        store = ResultWarehouse(tmp_path / "wh.jsonl")
        store.extend([_record(scheme="A"), _record(scheme="B")])
        out = tmp_path / "slice.csv"
        assert store.export_csv(out, store.query(scheme="A")) == 1


# --------------------------------------------------------------------------- #
# Property: append -> load -> query is lossless
# --------------------------------------------------------------------------- #
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_label = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=10,
)

_wh_record = st.builds(
    lambda scenario, scheme, experiment, seed, repetition, metrics, series: StudyResult(
        scenario=scenario,
        scheme=scheme,
        experiment=experiment,
        spec={
            "scenario": scenario,
            "tags": {"suite": "prop", "seed": seed, "repetition": repetition},
        },
        metrics=metrics,
        series=None if series is None else np.asarray(series, dtype=float),
    ),
    scenario=_label,
    scheme=_label,
    experiment=st.sampled_from(["replay", "fluctuation", "failure"]),
    seed=st.integers(0, 3),
    repetition=st.integers(0, 2),
    metrics=st.dictionaries(_label, _finite, max_size=4),
    series=st.one_of(st.none(), st.lists(_finite, max_size=6)),
)


class TestWarehouseProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_wh_record, max_size=6))
    def test_append_load_query_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("wh") / "wh.jsonl"
        store = ResultWarehouse(path)
        store.extend(records)
        loaded = store.results()
        assert len(loaded) == len(records)
        for before, after in zip(records, loaded):
            assert after.scenario == before.scenario
            assert after.scheme == before.scheme
            assert after.experiment == before.experiment
            assert after.spec == before.spec
            assert after.metrics == before.metrics
            if before.series is None:
                assert after.series is None
            else:
                np.testing.assert_array_equal(after.series, before.series)
        # Tag-filtered query partitions the records exactly.
        for seed in range(4):
            expected = sum(1 for r in records if r.spec["tags"]["seed"] == seed)
            assert len(store.query(seed=seed)) == expected

    @settings(max_examples=10, deadline=None)
    @given(st.lists(_wh_record, min_size=1, max_size=4), st.integers(1, 40))
    def test_torn_tail_recovery_keeps_complete_records(
        self, tmp_path_factory, records, cut
    ):
        path = tmp_path_factory.mktemp("wh") / "wh.jsonl"
        store = ResultWarehouse(path)
        store.extend(records)
        # Tear the final append: keep a strict prefix of the last JSON line
        # (1 .. len-1 chars), which can never itself be valid JSON.
        lines = path.read_text().splitlines(keepends=True)
        last = lines[-1].rstrip("\n")
        torn = last[: 1 + cut % (len(last) - 1)]
        path.write_text("".join(lines[:-1]) + torn)
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            loaded = store.results()
        assert len(loaded) == len(records) - 1
        # The read wrote nothing: the torn line is still there to drop.
        assert path.read_text().endswith(torn)
        assert len(store.results()) == len(records) - 1
