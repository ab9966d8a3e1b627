"""Suite descriptors: expansion semantics, execution, CLI, warehouse wiring.

The acceptance contract pinned here:

* a 2-study x 3-seed x 2-repetition suite expands study-major with
  ``suite`` / ``study`` / ``seed`` / ``repetition`` provenance stamped into
  every cell's tags;
* the suite seed rewrites declarative scenario references (pinned scenario /
  traffic seeds conflict loudly) and fills unset perturbation seeds (pinned
  ones are common random numbers and win);
* ``Study(descriptor)`` is exactly ``expand_suite(descriptor)``'s cells: a
  document's keys say whether it is a suite descriptor or a study spec, and
  a document mixing the two is rejected naming the stray keys;
* an interrupted suite resumed from its checkpoint finishes with zero repeat
  LP solves / trainings for finished cells and a warehouse holding every
  record exactly once;
* the main ``python -m repro.study FILE`` form and the ``query`` /
  ``export`` subcommands drive the same path end-to-end, the CSV export
  round-trips the record count, and the deleted ``suite`` subcommand is a
  usage error.
"""

from __future__ import annotations

import csv
import json

import pytest

from repro.evaluation.engine import EvaluationEngine
from repro.solvers import PredictionBasedTE
from repro.solvers.lp import count_lp_solves
from repro.study import (
    ResultSet,
    ResultWarehouse,
    Study,
    StudyCheckpoint,
    expand_suite,
)
from repro.study.__main__ import main as study_cli


def scenario_config(name: str, num_intervals: int = 20) -> dict:
    """An inline scenario config with no pinned traffic seed."""
    return {
        "name": name,
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "num_intervals": num_intervals},
        "history_len": 3,
    }


CHEAP_SCHEME = {
    "kind": "figret", "epochs": 1, "history_len": 3,
    "normalize_by_optimal": False, "seed": 0,
}


def acceptance_descriptor() -> dict:
    """The 2-study x 3-seed x 2-repetition acceptance suite (18 cells)."""
    return {
        "name": "acceptance",
        "annotations": {"machine": "ci"},
        "seeds": [1, 2, 3],
        "repetitions": 2,
        "studies": [
            {"name": "replay",
             "annotations": {"axis": "baseline"},
             "spec": {
                 "scenario": "geant_small",
                 "scheme": {"sweep": [{"kind": "figret"}, {"kind": "dote"}]},
                 "max_intervals": 4,
             }},
            {"name": "fluct",
             "spec": {
                 "scenario": "geant_small",
                 "scheme": {"kind": "figret"},
                 "perturbation": {"kind": "fluctuation", "alpha": 0.5},
                 "max_intervals": 4,
             }},
        ],
    }


# --------------------------------------------------------------------------- #
# Expansion
# --------------------------------------------------------------------------- #
class TestExpandSuite:
    def test_acceptance_suite_expands_study_major(self):
        cells = expand_suite(acceptance_descriptor())
        # (2 schemes + 1 scheme) x 3 seeds x 2 repetitions
        assert len(cells) == 18
        tags = [cell.tags for cell in cells]
        assert all(tag["suite"] == "acceptance" for tag in tags)
        assert [tag["study"] for tag in tags] == ["replay"] * 12 + ["fluct"] * 6
        # Study-major, then seed, then repetition, then the study's own grid.
        assert [tag["seed"] for tag in tags[:12]] == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        assert [tag["repetition"] for tag in tags[:4]] == [0, 0, 1, 1]

    def test_annotations_flow_into_tags(self):
        cells = expand_suite(acceptance_descriptor())
        assert cells[0].tags["machine"] == "ci"
        assert cells[0].tags["axis"] == "baseline"
        assert "axis" not in cells[-1].tags  # study annotations stay per-study

    def test_seed_rewrites_bare_scenario_name(self):
        cells = expand_suite({"seeds": [7], "studies": [
            {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME}},
        ]})
        assert cells[0].scenario == {"name": "geant_small", "seed": 7}

    def test_seed_rewrites_registry_reference(self):
        cells = expand_suite({"seeds": [7], "studies": [
            {"spec": {"scenario": {"name": "geant_small", "num_intervals": 8},
                      "scheme": CHEAP_SCHEME}},
        ]})
        assert cells[0].scenario == {"name": "geant_small", "num_intervals": 8, "seed": 7}

    def test_seed_rewrites_inline_traffic_config(self):
        cells = expand_suite({"seeds": [7], "studies": [
            {"spec": {"scenario": scenario_config("inline"), "scheme": CHEAP_SCHEME}},
        ]})
        assert cells[0].scenario["traffic"]["seed"] == 7

    def test_pinned_registry_seed_conflicts_with_seeds_axis(self):
        with pytest.raises(ValueError, match="pins scenario seed 3"):
            expand_suite({"seeds": [1, 2], "studies": [
                {"spec": {"scenario": {"name": "geant_small", "seed": 3},
                          "scheme": CHEAP_SCHEME}},
            ]})

    def test_pinned_inline_traffic_seed_conflicts_with_seeds_axis(self):
        config = scenario_config("pinned")
        config["traffic"]["seed"] = 5
        with pytest.raises(ValueError, match="pins traffic seed 5"):
            expand_suite({"seeds": [1, 2], "studies": [
                {"spec": {"scenario": config, "scheme": CHEAP_SCHEME}},
            ]})

    def test_no_seeds_axis_leaves_scenario_and_tags_alone(self):
        cells = expand_suite({"studies": [
            {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME}},
        ]})
        assert cells[0].scenario == "geant_small"
        assert "seed" not in cells[0].tags
        assert cells[0].tags["repetition"] == 0

    def test_suite_seed_fills_unset_perturbation_seed(self):
        cells = expand_suite({"seeds": [9], "studies": [
            {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME,
                      "perturbation": {"kind": "fluctuation", "alpha": 0.5}}},
        ]})
        assert cells[0].perturbation["seed"] == 9

    def test_pinned_perturbation_seed_is_common_random_numbers(self):
        cells = expand_suite({"seeds": [1, 2], "studies": [
            {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME,
                      "perturbation": {"kind": "fluctuation", "alpha": 0.5, "seed": 7}}},
        ]})
        assert [cell.perturbation["seed"] for cell in cells] == [7, 7]

    def test_unseeded_perturbation_kinds_stay_untouched(self):
        cells = expand_suite({"seeds": [4], "studies": [
            {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME,
                      "perturbation": {"kind": "none"}}},
        ]})
        assert "seed" not in cells[0].perturbation

    def test_reserved_keys_rejected_in_annotations_and_tags(self):
        base = {"studies": [{"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME}}]}
        with pytest.raises(ValueError, match=r"suite annotations use reserved tag key\(s\) \['seed'\]"):
            expand_suite({**base, "annotations": {"seed": 1}})
        with pytest.raises(ValueError, match=r"study 'named' annotations use reserved"):
            expand_suite({"studies": [
                {"name": "named", "annotations": {"suite": "x"},
                 "spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME}},
            ]})
        with pytest.raises(ValueError, match="cell tags in study 'study-0' use reserved"):
            expand_suite({"studies": [
                {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME,
                          "tags": {"repetition": 5}}},
            ]})

    def test_cell_tags_survive_alongside_provenance(self):
        cells = expand_suite({"studies": [
            {"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME,
                      "tags": {"variant": "ablation"}}},
        ]})
        assert cells[0].tags["variant"] == "ablation"
        assert cells[0].tags["study"] == "study-0"

    @pytest.mark.parametrize(
        "make", [lambda paths: object(), PredictionBasedTE], ids=["object", "te_scheme"]
    )
    def test_live_scheme_objects_rejected(self, make, triangle_paths):
        with pytest.raises(TypeError, match="scheme must be a spec dict"):
            expand_suite({"studies": [
                {"spec": {"scenario": "geant_small", "scheme": make(triangle_paths)}},
            ]})

    def test_live_scenario_objects_rejected(self):
        with pytest.raises(ValueError, match="live scenario object"):
            expand_suite({"seeds": [1], "studies": [
                {"spec": {"scenario": object(), "scheme": CHEAP_SCHEME}},
            ]})
        with pytest.raises(ValueError, match="live scenario object"):
            expand_suite({"studies": [
                {"spec": {"scenario": object(), "scheme": CHEAP_SCHEME}},
            ]})

    @pytest.mark.parametrize("descriptor, message", [
        ({"studies": []}, "non-empty list"),
        ({"studies": "nope"}, "non-empty list"),
        ({"bogus": 1, "studies": [{"spec": {}}]}, r"unknown suite descriptor key\(s\) \['bogus'\]"),
        ({"seeds": [1, 1], "studies": [{"spec": {}}]}, "duplicates"),
        ({"seeds": [], "studies": [{"spec": {}}]}, "must not be empty"),
        ({"seeds": [True], "studies": [{"spec": {}}]}, "must be ints"),
        ({"seeds": "012", "studies": [{"spec": {}}]}, "sequence of ints"),
        ({"repetitions": 0, "studies": [{"spec": {}}]}, "positive int"),
        ({"repetitions": True, "studies": [{"spec": {}}]}, "positive int"),
        ({"name": "", "studies": [{"spec": {}}]}, "non-empty string"),
        ({"studies": [{"spec": {}, "bogus": 1}]}, r"unknown study entry key\(s\)"),
    ])
    def test_descriptor_validation(self, descriptor, message):
        with pytest.raises(ValueError, match=message):
            expand_suite(descriptor)

    def test_duplicate_study_names_rejected(self):
        spec = {"scenario": "geant_small", "scheme": CHEAP_SCHEME}
        with pytest.raises(ValueError, match="duplicate study name 'twin'"):
            expand_suite({"studies": [
                {"name": "twin", "spec": spec}, {"name": "twin", "spec": spec},
            ]})

    def test_study_expands_a_descriptor_eagerly(self):
        with pytest.raises(ValueError, match="unknown suite descriptor"):
            Study({"oops": 1, "studies": [{"spec": {}}]})
        study = Study(acceptance_descriptor())
        assert len(study) == 18
        assert {cell.tags["suite"] for cell in study.specs} == {"acceptance"}

    def test_study_of_a_descriptor_is_expand_suite(self):
        descriptor = acceptance_descriptor()
        assert [cell.provenance_key for cell in Study(descriptor).specs] == [
            cell.provenance_key for cell in expand_suite(descriptor)
        ]

    def test_document_mixing_cell_and_suite_keys_names_the_cell_keys(self):
        mixed = {
            "name": "mixed",
            "scenario": "geant_small",
            "scheme": CHEAP_SCHEME,
            "studies": [{"spec": {"scenario": "geant_small", "scheme": CHEAP_SCHEME}}],
        }
        with pytest.raises(ValueError, match=r"unknown suite descriptor key\(s\) \['scenario', 'scheme'\]"):
            Study(mixed)


# --------------------------------------------------------------------------- #
# Execution: warehouse wiring + interrupted-resume accounting
# --------------------------------------------------------------------------- #
def small_suite_descriptor() -> dict:
    """1 study x 2 seeds x 2 repetitions over an inline scenario (4 cells)."""
    return {
        "name": "small",
        "seeds": [1, 2],
        "repetitions": 2,
        "studies": [
            {"name": "replay",
             "spec": {"scenario": scenario_config("suite_small"),
                      "scheme": dict(CHEAP_SCHEME), "max_intervals": 3}},
        ],
    }


class TestSuiteExecution:
    def test_run_fills_warehouse_and_repetitions_are_identical(self, tmp_path):
        warehouse = tmp_path / "wh.jsonl"
        suite = Study(small_suite_descriptor())
        results = suite.run(warehouse=warehouse, engine=EvaluationEngine())
        assert len(results) == 4
        stored = ResultWarehouse(warehouse).results()
        assert len(stored) == 4
        assert [r.tags["repetition"] for r in stored] == [0, 1, 0, 1]
        # The pipeline is deterministic: repetitions are exact repeats.
        by_key = {}
        for record in stored:
            by_key.setdefault(record.tags["seed"], []).append(record.metrics)
        for seed, metrics in by_key.items():
            assert metrics[0] == metrics[1], f"seed {seed} repetitions diverged"
        # Different seeds regenerate traffic, so they genuinely differ.
        assert by_key[1][0] != by_key[2][0]

    def test_interrupted_suite_resumes_without_repeat_work(self, tmp_path):
        descriptor = small_suite_descriptor()
        checkpoint = tmp_path / "suite.ckpt"
        warehouse = tmp_path / "wh.jsonl"

        with count_lp_solves() as full_run:
            reference = Study(descriptor).run(engine=EvaluationEngine())
        assert len(reference) == 4
        assert full_run.count > 0

        # Simulate a crash after the first two cells (all of seed 1): their
        # records reached the checkpoint, but only one reached the warehouse
        # -- the worst crash window.
        StudyCheckpoint(checkpoint).extend(list(reference)[:2])
        ResultWarehouse(warehouse).append(list(reference)[0])

        suite = Study(descriptor)
        with count_lp_solves() as tally:
            resumed = suite.resume(checkpoint, warehouse=warehouse, engine=EvaluationEngine())
        # Only the seed-2 half still runs: strictly fewer solves than the
        # full grid, and none at all for seed 1's finished cells (absolute
        # counts are process-history dependent, so assert the bound).
        assert 0 < tally.count < full_run.count
        assert resumed.to_json() == reference.to_json()

        # The warehouse reconciled: every record exactly once, including the
        # one lost in the crash window (append order differs -- the sync
        # pass adds the lost record last -- so compare by provenance).
        def by_provenance(records):
            return {
                (r.tags["seed"], r.tags["repetition"]): r.metrics for r in records
            }

        stored = ResultWarehouse(warehouse).results()
        assert len(stored) == 4
        assert by_provenance(stored) == by_provenance(reference)

        # Resuming the complete run again is entirely idle and appends nothing.
        with count_lp_solves() as idle:
            again = Study(descriptor).resume(
                checkpoint, warehouse=warehouse, engine=EvaluationEngine()
            )
        assert idle.count == 0
        assert again.to_json() == reference.to_json()
        assert len(ResultWarehouse(warehouse).results()) == 4


# --------------------------------------------------------------------------- #
# CLI subcommands
# --------------------------------------------------------------------------- #
def framing(shown: str) -> list[str]:
    """What a runner prints around its result table, as recorded at PR 21
    (the header and the rows hold widths and numbers)."""
    return [line for line in shown.splitlines() if " | " not in line and "-+-" not in line]


class TestSuiteCli:
    @pytest.fixture()
    def suite_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(small_suite_descriptor()))
        return path

    def test_suite_query_export_end_to_end(self, tmp_path, suite_file, capsys):
        warehouse = tmp_path / "wh.jsonl"
        out_csv = tmp_path / "export" / "table.csv"

        assert study_cli([
            str(suite_file), "--warehouse", str(warehouse),
            "--checkpoint", str(tmp_path / "run.ckpt"),
        ]) == 0
        assert framing(capsys.readouterr().out) == [
            "Running 4 experiment cell(s) ...",
            f"Study results ({suite_file})",
            "",
            f"Warehoused 4 record(s) in {warehouse}",
        ]

        assert study_cli(["query", str(warehouse)]) == 0
        shown = capsys.readouterr().out
        assert "4 record(s) match" in shown
        assert "ci95" in shown

        assert study_cli([
            "query", str(warehouse), "--seed", "1",
            "--group-by", "scheme,seed", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["seed"] == 1 and rows[0]["n"] == 2

        assert study_cli(["export", str(warehouse), str(out_csv)]) == 0
        assert f"Wrote 4 row(s) to {out_csv}" in capsys.readouterr().out
        with open(out_csv, newline="") as handle:
            assert len(list(csv.reader(handle))) == 1 + 4

    def test_suite_resume_via_cli(self, tmp_path, suite_file, capsys):
        warehouse = tmp_path / "wh.jsonl"
        checkpoint = tmp_path / "run.ckpt"
        assert study_cli([
            str(suite_file), "--warehouse", str(warehouse),
            "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        # Re-running without --resume refuses to clobber the checkpoint.
        with pytest.raises(SystemExit):
            study_cli([
                str(suite_file), "--warehouse", str(warehouse),
                "--checkpoint", str(checkpoint),
            ])
        capsys.readouterr()
        out = tmp_path / "results.json"
        assert study_cli([
            str(suite_file), "--warehouse", str(warehouse),
            "--checkpoint", str(checkpoint), "--resume", "--out", str(out),
        ]) == 0
        assert framing(capsys.readouterr().out) == [
            f"Resuming 4 experiment cell(s) from {checkpoint} ...",
            f"Study results ({suite_file})",
            "",
            f"Warehoused 4 record(s) in {warehouse}",
            f"Wrote 4 records to {out}",
        ]
        assert len(ResultWarehouse(warehouse).results()) == 4

    def test_cli_error_paths_are_clean(self, tmp_path, suite_file, capsys):
        with pytest.raises(SystemExit):
            study_cli(["query", str(tmp_path / "missing.jsonl")])
        assert "no results warehouse" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            study_cli(["export", str(tmp_path / "missing.jsonl"), str(tmp_path / "o.csv")])
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1, "studies": [{"spec": {}}]}))
        with pytest.raises(SystemExit) as excinfo:
            study_cli([str(bad)])
        assert excinfo.value.code == 2
        assert "unknown suite descriptor" in capsys.readouterr().err
        # A cell's scheme is always trained: the retired "train" key is
        # refused before anything runs.
        bad.write_text(json.dumps({"scenario": "geant_small", "scheme": CHEAP_SCHEME,
                                   "train": False}))
        with pytest.raises(SystemExit) as excinfo:
            study_cli([str(bad)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unknown experiment spec key(s) ['train']" in captured.err
        assert "Running" not in captured.out
        # The suite subcommand is gone: its first operand is no document.
        with pytest.raises(SystemExit) as excinfo:
            study_cli(["suite", str(suite_file)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            study_cli(["query", str(tmp_path / "w.jsonl"), "--confidence", "1.5"])
        assert "--confidence must be in (0, 1)" in capsys.readouterr().err

    def test_legacy_spec_invocation_still_works(self, tmp_path, capsys):
        spec = {"scenario": scenario_config("legacy"),
                "scheme": dict(CHEAP_SCHEME), "max_intervals": 2}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "results.json"
        checkpoint = tmp_path / "run.ckpt"
        argv = [str(spec_file), "--out", str(out), "--checkpoint", str(checkpoint)]
        for extra, first in (
            ([], "Running 1 experiment cell(s) ..."),
            (["--resume"], f"Resuming 1 experiment cell(s) from {checkpoint} ..."),
        ):
            assert study_cli(argv + extra) == 0
            assert framing(capsys.readouterr().out) == [
                first,
                f"Study results ({spec_file})",
                "",
                f"Wrote 1 records to {out}",
            ]
            assert len(ResultSet.load(out)) == 1
