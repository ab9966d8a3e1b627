"""Coverage for evaluation/reporting.py plus ResultSet JSON properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import normalized_mlu_statistics
from repro.evaluation.reporting import format_mlu_comparison, format_table
from repro.study import ResultSet, StudyResult


# --------------------------------------------------------------------------- #
# format_table
# --------------------------------------------------------------------------- #
class TestFormatTable:
    def test_alignment_pads_to_widest_cell(self):
        out = format_table(["name", "v"], [["a", "1"], ["longer", "22"]])
        lines = out.splitlines()
        assert lines[0] == "name   | v "
        assert lines[1] == "-------+---"
        assert lines[2] == "a      | 1 "
        assert lines[3] == "longer | 22"

    def test_empty_rows_render_header_only(self):
        out = format_table(["a", "bb"], [])
        assert out.splitlines() == ["a | bb", "--+---"]

    def test_title_is_first_line(self):
        out = format_table(["x"], [["1"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_non_string_cells_are_stringified(self):
        out = format_table(["x", "y"], [[1, 2.5], [None, True]])
        assert "1" in out and "2.5" in out and "None" in out and "True" in out

    def test_header_wider_than_cells(self):
        out = format_table(["wide_header"], [["x"]])
        lines = out.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_wide_row_raises_naming_the_row(self):
        with pytest.raises(ValueError, match=r"table row 1 has 3 cell\(s\)"):
            format_table(["a", "b"], [["1", "2"], ["1", "2", "3"]])

    def test_short_row_raises_naming_the_row(self):
        # Used to slip past the width computation and blow up later (or
        # render a ragged table); now it is a ValueError up front.
        with pytest.raises(ValueError, match=r"table row 0 has 1 cell\(s\) but there are 2 header\(s\)"):
            format_table(["a", "b"], [["only"]])


# --------------------------------------------------------------------------- #
# format_mlu_comparison
# --------------------------------------------------------------------------- #
class TestFormatMluComparison:
    def test_rows_in_mapping_order_with_percentiles(self):
        stats = {
            "FIGRET": normalized_mlu_statistics(np.array([1.0, 1.2, 1.4])),
            "DOTE": normalized_mlu_statistics(np.array([1.0, 2.5, 3.0])),
        }
        out = format_mlu_comparison(stats, title="cmp")
        lines = out.splitlines()
        assert lines[0] == "cmp"
        assert lines[1].startswith("scheme")
        assert lines[3].startswith("FIGRET")
        assert lines[4].startswith("DOTE")
        # DOTE has 2/3 samples above the severe threshold of 2.
        assert "66.7%" in lines[4]

    def test_empty_mapping_is_header_only(self):
        out = format_mlu_comparison({})
        assert len(out.splitlines()) == 2


# --------------------------------------------------------------------------- #
# ResultSet JSON round-trip (property-based)
# --------------------------------------------------------------------------- #
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_label = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
)

_record = st.builds(
    StudyResult,
    scenario=_label,
    scheme=_label,
    experiment=st.sampled_from(["replay", "fluctuation", "failure", "drift"]),
    spec=st.dictionaries(
        _label,
        st.one_of(_finite, st.integers(-1000, 1000), _label, st.booleans(), st.none()),
        max_size=4,
    ),
    metrics=st.dictionaries(_label, _finite, max_size=5),
    series=st.one_of(
        st.none(),
        st.lists(_finite, min_size=0, max_size=8).map(lambda v: np.asarray(v, dtype=float)),
    ),
)


class TestResultSetRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_record, max_size=5))
    def test_to_json_from_json_is_lossless(self, records):
        original = ResultSet(records)
        restored = ResultSet.from_json(original.to_json())
        assert len(restored) == len(original)
        for before, after in zip(original, restored):
            assert after.scenario == before.scenario
            assert after.scheme == before.scheme
            assert after.experiment == before.experiment
            assert after.spec == before.spec
            assert after.metrics == before.metrics
            if before.series is None:
                assert after.series is None
            else:
                np.testing.assert_array_equal(after.series, before.series)

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not a repro study result-set"):
            ResultSet.from_json('{"hello": 1}')

    def test_from_json_rejects_future_versions(self):
        text = ResultSet([]).to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="unsupported result-set version"):
            ResultSet.from_json(text)

    def test_from_json_rejects_missing_results_key(self):
        # A valid header with the body sheared off is corruption -- it must
        # not decode as "the study produced zero records".
        text = '{"format": "repro-study-resultset", "version": 1}'
        with pytest.raises(ValueError, match="corrupt result-set document: 'results' is missing"):
            ResultSet.from_json(text)

    def test_from_json_rejects_non_list_results(self):
        text = '{"format": "repro-study-resultset", "version": 1, "results": {}}'
        with pytest.raises(ValueError, match="corrupt result-set document: 'results' is dict"):
            ResultSet.from_json(text)

    def test_save_creates_missing_parent_directories(self, tmp_path):
        record = StudyResult(
            scenario="s", scheme="m", experiment="replay", spec={},
            metrics={"mean": 1.0}, series=None,
        )
        path = ResultSet([record]).save(tmp_path / "deep" / "nested" / "results.json")
        assert len(ResultSet.load(path)) == 1

    def test_save_and_load(self, tmp_path):
        record = StudyResult(
            scenario="s", scheme="m", experiment="replay", spec={"max_intervals": 3},
            metrics={"mean": 1.25}, series=np.array([1.0, 1.5]),
        )
        path = ResultSet([record]).save(tmp_path / "results.json")
        restored = ResultSet.load(path)
        assert restored[0].metrics == {"mean": 1.25}
        np.testing.assert_array_equal(restored[0].series, [1.0, 1.5])

    def test_to_json_can_trim_series(self):
        record = StudyResult(
            scenario="s", scheme="m", experiment="replay", spec={},
            metrics={"mean": 1.0}, series=np.array([1.0]),
        )
        restored = ResultSet.from_json(
            ResultSet([record]).to_json(include_series=False)
        )
        assert restored[0].series is None
        with pytest.raises(ValueError, match="no stored series"):
            restored[0].statistics
