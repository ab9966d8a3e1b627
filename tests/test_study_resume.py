"""Crash-safe studies: checkpointing and resume.

The acceptance contract pinned here:

* an interrupted ``Study.run(checkpoint=...)`` resumed via
  ``Study.resume(path)`` produces a ResultSet bit-identical (same
  ``to_json``) to an uninterrupted run, with zero repeat trainings and zero
  repeat LP solves for the already-checkpointed cells;
* a corrupt checkpoint fails with a clear error naming the file, while a
  partially appended trailing record (crash mid-write) is dropped with a
  warning and its cell simply re-runs.

Scenarios here are inline config dicts (no registry entries).
"""

from __future__ import annotations

import json

import pytest

from repro.evaluation.engine import EvaluationEngine
from repro.pool import resolve_workers
from repro.solvers.lp import OptimalMLUCache, count_lp_solves
from repro.study import (
    ExperimentSpec,
    InlineScenario,
    ResultSet,
    Study,
    StudyCheckpoint,
    register_scheme,
)
from repro.study.__main__ import main as study_cli
from repro.study import spec as spec_module


def scenario_config(name: str, seed: int) -> dict:
    return {
        "name": name,
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {
            "kind": "datacenter",
            "level": "pod",
            "seed": seed,
            "num_intervals": 40,
        },
        "history_len": 3,
    }


#: normalize_by_optimal=False keeps the tiny trainings LP-free, so every LP
#: solve in these grids is a replay normaliser and the accounting is exact.
SCHEME_SPECS = (
    {"kind": "figret", "epochs": 2, "history_len": 3, "robustness_weight": 0.1,
     "normalize_by_optimal": False, "seed": 0},
    {"kind": "dote", "epochs": 2, "history_len": 3,
     "normalize_by_optimal": False, "seed": 0},
    {"kind": "teal", "epochs": 2, "normalize_by_optimal": False, "seed": 0},
)

PERTURBATIONS = ({"kind": "none"}, {"kind": "fluctuation", "alpha": 0.5, "seed": 1})


def small_grid_spec() -> dict:
    """A 3-scenario x 1-scheme x 2-perturbation grid (6 cells, cheap)."""
    return {
        "scenario": {"sweep": [scenario_config(f"resume_small_{i}", i) for i in (1, 2, 3)]},
        "scheme": dict(SCHEME_SPECS[1]),
        "perturbation": {"sweep": list(PERTURBATIONS)},
        "max_intervals": 4,
    }


def fresh_engine() -> EvaluationEngine:
    return EvaluationEngine(cache=OptimalMLUCache())


# --------------------------------------------------------------------------- #
# Interrupt / resume
# --------------------------------------------------------------------------- #
@pytest.fixture
def counting_builder(monkeypatch):
    """A registered scheme kind whose builder counts builds and can be told
    to raise -- the injection point for 'the process died mid-grid'."""
    monkeypatch.setattr(spec_module, "_SCHEME_BUILDERS", dict(spec_module._SCHEME_BUILDERS))
    state = {"builds": 0, "fail_after": None}

    @register_scheme("resume_stub")
    def _build(path_set, *, cache=None, **params):
        state["builds"] += 1
        if state["fail_after"] is not None and state["builds"] > state["fail_after"]:
            raise RuntimeError("injected mid-grid crash")
        from repro.core.config import TrainingConfig
        from repro.core.dote import Dote

        return Dote(
            path_set,
            TrainingConfig(
                epochs=1, history_len=3, normalize_by_optimal=False, seed=0
            ),
            cache=cache,
        )

    return state


class TestInterruptResume:
    def test_interrupted_run_resumes_bit_identically(self, tmp_path, counting_builder):
        spec = small_grid_spec()
        spec["scheme"] = {"kind": "resume_stub"}

        reference = Study(spec).run(
            engine=fresh_engine(), checkpoint=tmp_path / "reference.ckpt"
        )
        assert counting_builder["builds"] == 3  # one training per scenario

        # Crash while building the third scenario's scheme: cells 1-4 (two
        # scenarios x two perturbations) are finished and checkpointed.
        counting_builder.update(builds=0, fail_after=2)
        checkpoint = tmp_path / "interrupted.ckpt"
        engine = fresh_engine()
        with pytest.raises(RuntimeError, match="injected mid-grid crash"):
            Study(spec).run(engine=engine, checkpoint=checkpoint)
        saved = StudyCheckpoint(checkpoint).load()
        assert len(saved) == 4
        assert [record.scenario for record in saved] == [
            "resume_small_1", "resume_small_1", "resume_small_2", "resume_small_2",
        ]

        # Resume on the same engine: only the remaining scenario trains
        # (zero repeat trainings) and only its demands are LP-solved (zero
        # repeat solves for checkpointed cells).
        counting_builder.update(builds=0, fail_after=None)
        with count_lp_solves() as tally:
            resumed = Study(spec).resume(checkpoint, engine=engine)
        assert counting_builder["builds"] == 1
        assert tally.count == 8  # 1 scenario x 2 perturbations x 4 targets
        assert resumed.to_json() == reference.to_json()

        # Resuming the now-complete checkpoint runs nothing at all.
        counting_builder["builds"] = 0
        with count_lp_solves() as idle:
            again = Study(spec).resume(checkpoint, engine=fresh_engine())
        assert counting_builder["builds"] == 0
        assert idle.count == 0
        assert again.to_json() == reference.to_json()

    def test_resume_missing_file_starts_fresh_run(self, tmp_path):
        spec = {
            "scenario": scenario_config("resume_fresh", 4),
            "scheme": dict(SCHEME_SPECS[1]),
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "not_there_yet.ckpt"
        results = Study(spec).resume(checkpoint, engine=fresh_engine())
        assert len(results) == 1
        assert len(StudyCheckpoint(checkpoint).load()) == 1

    def test_run_refuses_existing_checkpoint(self, tmp_path):
        spec = {
            "scenario": scenario_config("resume_refuse", 4),
            "scheme": dict(SCHEME_SPECS[1]),
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "grid.ckpt"
        Study(spec).run(engine=fresh_engine(), checkpoint=checkpoint)
        with pytest.raises(FileExistsError, match="already exists.*resume"):
            Study(spec).run(engine=fresh_engine(), checkpoint=checkpoint)

    def test_live_object_cells_always_rerun_on_resume(self, tmp_path):
        # A live scenario records only an {"inline": <name>} marker, which
        # two different objects with one display name would share -- so
        # resume must re-run such cells (with a warning) instead of silently
        # serving a possibly-stale on-disk result.
        from repro.datasets import from_config

        scenario = from_config(scenario_config("resume_inline", 4))
        cell = ExperimentSpec(
            scenario=scenario, scheme=dict(SCHEME_SPECS[1]), max_intervals=3
        )
        checkpoint = tmp_path / "inline.ckpt"
        first = Study([cell]).run(engine=fresh_engine(), checkpoint=checkpoint)
        with pytest.warns(RuntimeWarning, match="live objects.*re-run"):
            resumed = Study([cell]).resume(checkpoint, engine=fresh_engine())
        assert resumed.to_json() == first.to_json()  # deterministic re-run

    def test_resume_warns_on_records_matching_no_cell(self, tmp_path):
        spec = {
            "scenario": scenario_config("resume_extra", 4),
            "scheme": {"sweep": [dict(SCHEME_SPECS[0]), dict(SCHEME_SPECS[1])]},
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "grid.ckpt"
        Study(spec).run(engine=fresh_engine(), checkpoint=checkpoint)
        narrower = dict(spec, scheme=dict(SCHEME_SPECS[0]))
        with pytest.warns(RuntimeWarning, match="matches no cell"):
            results = Study(narrower).resume(checkpoint, engine=fresh_engine())
        assert len(results) == 1

    def test_resume_onto_touched_empty_file_stays_loadable(self, tmp_path):
        spec = {
            "scenario": scenario_config("resume_touch", 4),
            "scheme": dict(SCHEME_SPECS[1]),
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "touched.ckpt"
        checkpoint.touch()  # pre-existing but empty (no header yet)
        results = Study(spec).resume(checkpoint, engine=fresh_engine())
        assert len(results) == 1
        # The file gained its header, so later loads and resumes work.
        assert len(StudyCheckpoint(checkpoint).load()) == 1
        again = Study(spec).resume(checkpoint, engine=fresh_engine())
        assert again.to_json() == results.to_json()


class TestCheckpointFile:
    def test_corrupt_header_fails_with_path_in_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("this is not json\n")
        spec = {"scenario": scenario_config("x", 1), "scheme": dict(SCHEME_SPECS[1])}
        with pytest.raises(ValueError, match=r"bad\.ckpt.*header"):
            Study(spec).resume(bad)

    def test_foreign_json_rejected(self, tmp_path):
        alien = tmp_path / "alien.ckpt"
        alien.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a study checkpoint"):
            StudyCheckpoint(alien).load()

    def test_mid_file_corruption_fails_with_line_number(self, tmp_path):
        spec = {
            "scenario": scenario_config("resume_corrupt", 4),
            "scheme": {"sweep": [dict(SCHEME_SPECS[0]), dict(SCHEME_SPECS[1])]},
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "grid.ckpt"
        Study(spec).run(engine=fresh_engine(), checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 3
        checkpoint.write_text("\n".join([lines[0], "{corrupt", lines[2]]) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            StudyCheckpoint(checkpoint).load()

    def test_schema_invalid_last_record_is_corruption_not_torn_tail(self, tmp_path):
        # A last line that parses as JSON but is not a valid record cannot
        # be a crash-truncated append -- it must raise, not be silently
        # deleted by the torn-tail compaction.
        spec = {
            "scenario": scenario_config("resume_schema", 4),
            "scheme": dict(SCHEME_SPECS[1]),
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "grid.ckpt"
        Study(spec).run(engine=fresh_engine(), checkpoint=checkpoint)
        with open(checkpoint, "a") as handle:
            handle.write(json.dumps({"not": "a record"}) + "\n")
        before = checkpoint.read_text()
        with pytest.raises(ValueError, match="line 3"):
            StudyCheckpoint(checkpoint).load()
        assert checkpoint.read_text() == before  # nothing destroyed

    def test_partial_trailing_record_dropped_and_cell_rerun(self, tmp_path):
        spec = {
            "scenario": scenario_config("resume_partial", 4),
            "scheme": {"sweep": [dict(SCHEME_SPECS[0]), dict(SCHEME_SPECS[1])]},
            "max_intervals": 3,
        }
        reference_engine = fresh_engine()
        checkpoint = tmp_path / "grid.ckpt"
        reference = Study(spec).run(engine=reference_engine, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        # Chop the last record in half: a crash mid-append.
        checkpoint.write_text("\n".join(lines[:-1] + [lines[-1][:40]]) + "\n")
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            resumed = Study(spec).resume(checkpoint, engine=reference_engine)
        assert resumed.to_json() == reference.to_json()
        # The re-run cell was appended again, restoring a complete file.
        assert len(StudyCheckpoint(checkpoint).load()) == 2


# --------------------------------------------------------------------------- #
# ResultSet persistence hardening
# --------------------------------------------------------------------------- #
class TestResultSetPersistence:
    def test_save_round_trips_and_leaves_no_temp_file(self, tmp_path):
        results = Study(
            {"scenario": scenario_config("rs_save", 4), "scheme": dict(SCHEME_SPECS[1]),
             "max_intervals": 3}
        ).run(engine=fresh_engine())
        path = results.save(tmp_path / "out.json")
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))
        restored = ResultSet.load(path)
        assert restored.to_json() == results.to_json()

    def test_save_overwrites_atomically(self, tmp_path):
        results = Study(
            {"scenario": scenario_config("rs_over", 4), "scheme": dict(SCHEME_SPECS[1]),
             "max_intervals": 3}
        ).run(engine=fresh_engine())
        path = tmp_path / "out.json"
        results.save(path)
        results.save(path)  # second save replaces, never appends/corrupts
        assert len(ResultSet.load(path)) == 1

    def test_load_reports_offending_path_on_decode_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=r"broken\.json"):
            ResultSet.load(path)


# --------------------------------------------------------------------------- #
# Failing cells
# --------------------------------------------------------------------------- #
class TestFailingCell:
    def test_failing_cell_keeps_finished_cells_checkpointed(self, tmp_path):
        # Cell 1 (streaming replay) is fine; cell 2 (failure + streaming) is
        # rejected at run time.  Cell 1's record reaches the checkpoint before
        # cell 2's error propagates, with the cell-identifying note.
        spec = {
            "scenario": scenario_config("resume_partial_group", 4),
            "scheme": dict(SCHEME_SPECS[1]),
            "perturbation": {"sweep": [
                {"kind": "none"},
                {"kind": "failure", "num_failures": 1, "num_trials": 1},
            ]},
            "streaming": True,
            "max_intervals": 3,
        }
        checkpoint = tmp_path / "group.ckpt"
        with pytest.raises(ValueError, match="batched failure protocol") as excinfo:
            Study(spec).run(engine=fresh_engine(), checkpoint=checkpoint)
        assert any(
            note.startswith("raised by study cell 2/2")
            for note in getattr(excinfo.value, "__notes__", [])
        )
        saved = StudyCheckpoint(checkpoint).load()
        assert len(saved) == 1
        assert saved[0].experiment == "replay"

class TestWorkerValidation:
    @pytest.mark.parametrize("bad", [0, -3, True, 1.5, "garbage"])
    def test_resolve_workers_rejects_invalid(self, bad):
        with pytest.raises(ValueError, match="auto"):
            resolve_workers(bad)

    def test_resolve_workers_accepts_valid_forms(self):
        assert resolve_workers(None) is None
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") >= 1

    def test_engine_rejects_zero_lp_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            EvaluationEngine(cache=OptimalMLUCache(workers=0))

    @pytest.mark.parametrize("entry", ["run", "resume", "plan"])
    def test_study_takes_no_cell_workers(self, tmp_path, entry):
        # Cells run one at a time in the calling process; there is no cell pool.
        study = Study({"scenario": scenario_config("x", 1), "scheme": dict(SCHEME_SPECS[1])})
        checkpoint = tmp_path / "x.ckpt"
        args = (checkpoint,) if entry == "resume" else ()
        with pytest.raises(TypeError, match="cell_workers"):
            getattr(study, entry)(*args, engine=fresh_engine(), cell_workers=2)
        assert not checkpoint.exists()


# --------------------------------------------------------------------------- #
# A train-less scenario is a spec-level error
# --------------------------------------------------------------------------- #
class TestPairStdGuard:
    def test_trainless_scenario_fluctuation_cell_raises_value_error(self):
        from repro.datasets import from_config

        scenario = from_config(scenario_config("trainless", 6))
        _, test = scenario.split()
        cell = ExperimentSpec(
            scenario=InlineScenario(
                paths=scenario.paths, test=test, history_len=3, name="trainless"
            ),
            scheme=dict(SCHEME_SPECS[1]),
            perturbation={"kind": "fluctuation", "alpha": 0.5},
        )
        with pytest.raises(ValueError, match="trainless.*training split"):
            Study([cell]).run(engine=fresh_engine())


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestResumeCLI:
    def _write_spec(self, tmp_path, name, spec):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    def test_garbage_workers_clean_error(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path, "spec.json",
            {"scenario": scenario_config("cli_a", 1), "scheme": dict(SCHEME_SPECS[1])},
        )
        with pytest.raises(SystemExit) as excinfo:
            study_cli([spec, "--lp-workers", "garbage"])
        assert excinfo.value.code == 2
        assert "expected 'auto' or a positive integer" in capsys.readouterr().err

    def test_checkpoint_resume_flow(self, tmp_path, capsys):
        scheme = dict(SCHEME_SPECS[1])
        prefix = {
            "scenario": scenario_config("cli_b", 2),
            "scheme": scheme,
            "max_intervals": 3,
        }
        full = dict(prefix, scheme={"sweep": [scheme, dict(SCHEME_SPECS[0])]})
        prefix_path = self._write_spec(tmp_path, "prefix.json", prefix)
        full_path = self._write_spec(tmp_path, "full.json", full)
        checkpoint = str(tmp_path / "run.ckpt")

        assert study_cli([prefix_path, "--checkpoint", checkpoint]) == 0
        capsys.readouterr()

        # Without --resume an existing checkpoint is refused, cleanly.
        with pytest.raises(SystemExit) as excinfo:
            study_cli([full_path, "--checkpoint", checkpoint])
        assert excinfo.value.code == 2
        assert "pass --resume" in capsys.readouterr().err

        # With --resume the finished prefix cell is skipped.
        assert study_cli([full_path, "--checkpoint", checkpoint, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "Resuming 2 experiment cell(s)" in out
        assert len(StudyCheckpoint(checkpoint).load()) == 2

    def test_resume_without_checkpoint_errors(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path, "spec.json",
            {"scenario": scenario_config("cli_c", 3), "scheme": dict(SCHEME_SPECS[1])},
        )
        with pytest.raises(SystemExit):
            study_cli([spec, "--resume"])
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_clean_cli_error(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path, "spec.json",
            {"scenario": scenario_config("cli_d", 3), "scheme": dict(SCHEME_SPECS[1])},
        )
        bad = tmp_path / "bad.ckpt"
        bad.write_text("garbage\n")
        with pytest.raises(SystemExit) as excinfo:
            study_cli([spec, "--checkpoint", str(bad), "--resume"])
        assert excinfo.value.code == 2
        assert "bad.ckpt" in capsys.readouterr().err
