"""The declarative study layer: spec expansion, registries, orchestration.

Includes the acceptance grid of the API redesign: a 3-scenario x 3-scheme x
2-perturbation grid declared as one plain dict, executed with zero repeat LP
solves across cells, whose ResultSet round-trips through JSON with spec
provenance intact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.datasets import (
    available_scenarios,
    from_config,
    load,
    register_scenario,
    unregister_scenario,
)
from repro.core import Figret, TrainingConfig
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import DesensitizationTE, FaultAwareDesensitizationTE, PredictionBasedTE
from repro.solvers.lp import OptimalMLUCache, count_lp_solves
from repro.study import (
    ExperimentSpec,
    ResultSet,
    Study,
    available_schemes,
    build_scheme,
    expand_spec,
    register_scheme,
    sweep,
)
from repro.study.__main__ import main as study_cli
from repro.traffic.perturb import gaussian_fluctuation, reverse_rank_fluctuation


# --------------------------------------------------------------------------- #
# Spec expansion
# --------------------------------------------------------------------------- #
class TestExpandSpec:
    def test_no_sweep_is_single_cell(self):
        spec = {"scenario": "geant_small", "scheme": {"kind": "dote"}}
        assert expand_spec(spec) == [spec]

    def test_cross_product_order(self):
        spec = {
            "scenario": sweep("a", "b"),
            "scheme": {"kind": "dote"},
            "perturbation": sweep({"kind": "none"}, {"kind": "fluctuation", "alpha": 1.0}),
        }
        cells = expand_spec(spec)
        assert len(cells) == 4
        # First axis (discovery order) varies slowest, last varies fastest.
        assert [cell["scenario"] for cell in cells] == ["a", "a", "b", "b"]
        assert [cell["perturbation"]["kind"] for cell in cells] == [
            "none", "fluctuation", "none", "fluctuation",
        ]

    def test_json_sweep_spelling(self):
        spec = {"scenario": {"sweep": ["a", "b"]}, "scheme": {"kind": "dote"}}
        assert [cell["scenario"] for cell in expand_spec(spec)] == ["a", "b"]

    def test_nested_sweep_inside_scheme_params(self):
        spec = {
            "scenario": "x",
            "scheme": {"kind": "figret", "robustness_weight": sweep(0.0, 0.1, 0.3)},
        }
        cells = expand_spec(spec)
        assert [cell["scheme"]["robustness_weight"] for cell in cells] == [0.0, 0.1, 0.3]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            sweep()


# --------------------------------------------------------------------------- #
# Cell validation
# --------------------------------------------------------------------------- #
class TestExperimentSpec:
    def test_unknown_cell_key_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment spec key"):
            ExperimentSpec.from_dict({"scenario": "x", "scheme": {"kind": "dote"}, "nope": 1})

    def test_unknown_scheme_kind_listed(self):
        with pytest.raises(ValueError, match="unknown scheme kind 'bogus'"):
            ExperimentSpec(scenario="x", scheme={"kind": "bogus"})

    def test_unknown_perturbation_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation kind"):
            ExperimentSpec(scenario="x", scheme={"kind": "dote"}, perturbation={"kind": "melt"})

    def test_perturbation_requires_parameters(self):
        with pytest.raises(ValueError, match="requires 'alpha'"):
            ExperimentSpec(
                scenario="x", scheme={"kind": "dote"}, perturbation={"kind": "fluctuation"}
            )

    def test_perturbation_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            ExperimentSpec(
                scenario="x",
                scheme={"kind": "dote"},
                perturbation={"kind": "fluctuation", "alpha": 1.0, "sigma": 2},
            )

    def test_scheme_label_excluded_from_dedup_key(self):
        first = ExperimentSpec(scenario="x", scheme={"kind": "dote", "label": "A"})
        second = ExperimentSpec(scenario="x", scheme={"kind": "dote", "label": "B"})
        assert first.scheme_key == second.scheme_key

    def test_provenance_is_json_safe(self):
        cell = ExperimentSpec(
            scenario={"name": "geant_small", "seed": 7},
            scheme={"kind": "figret", "hidden_sizes": (16, 16)},
            perturbation={"kind": "drift", "train_segment": (0.0, 0.25)},
            max_intervals=10,
        )
        provenance = cell.to_dict()
        restored = json.loads(json.dumps(provenance))
        assert restored == provenance
        assert restored["scheme"]["hidden_sizes"] == [16, 16]
        assert restored["perturbation"]["train_segment"] == [0.0, 0.25]


# --------------------------------------------------------------------------- #
# Open registries
# --------------------------------------------------------------------------- #
def _tiny_config(name="cfg_mesh", seed=5, num_intervals=60):
    return {
        "name": name,
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {
            "kind": "datacenter",
            "level": "pod",
            "seed": seed,
            "num_intervals": num_intervals,
        },
        "history_len": 3,
    }


class TestScenarioRegistry:
    def test_from_config_builds_scenario(self):
        scenario = from_config(_tiny_config())
        assert scenario.name == "cfg_mesh"
        assert scenario.topology.num_nodes == 4
        assert len(scenario.traffic) == 60
        assert scenario.history_len == 3
        assert scenario.paths.num_sd_pairs == 12

    def test_from_config_unknown_topology_kind(self):
        config = _tiny_config()
        config["topology"] = {"kind": "torus"}
        with pytest.raises(ValueError, match="unknown topology kind 'torus'"):
            from_config(config)

    def test_from_config_unknown_traffic_kind(self):
        config = _tiny_config()
        config["traffic"] = {"kind": "nope", "num_intervals": 10}
        with pytest.raises(ValueError, match="unknown traffic kind"):
            from_config(config)

    def test_from_config_rejects_leftover_keys(self):
        config = _tiny_config()
        config["wat"] = 1
        with pytest.raises(ValueError, match="unknown scenario config key"):
            from_config(config)

    def test_from_config_rejects_unknown_topology_params(self):
        config = _tiny_config()
        config["topology"]["num_leaves"] = 4  # star's parameter, not fully_connected's
        with pytest.raises(ValueError, match="unknown key.*'num_leaves'.*fully_connected"):
            from_config(config)

    def test_from_config_rejects_unknown_traffic_params(self):
        config = _tiny_config()
        config["traffic"]["noise"] = 0.1  # typo for noise_level, and not a dc param
        with pytest.raises(ValueError, match="unknown key.*'noise'"):
            from_config(config)

    def test_from_config_rejects_reserved_traffic_topology_key(self):
        config = _tiny_config()
        config["traffic"]["topology"] = {"kind": "star"}
        with pytest.raises(ValueError, match="unknown key.*'topology'"):
            from_config(config)

    def test_register_scenario_roundtrip(self):
        @register_scenario("unit_test_scenario")
        def _build(seed, num_intervals):
            return from_config(_tiny_config("unit_test_scenario", seed, num_intervals or 40))

        try:
            assert "unit_test_scenario" in available_scenarios()
            scenario = load("unit_test_scenario", seed=9, num_intervals=25)
            assert len(scenario.traffic) == 25
            with pytest.raises(ValueError, match="already registered"):
                register_scenario("unit_test_scenario")(_build)
            register_scenario("unit_test_scenario", overwrite=True)(_build)
        finally:
            unregister_scenario("unit_test_scenario")
        assert "unit_test_scenario" not in available_scenarios()


class TestSchemeRegistry:
    def test_available_schemes_cover_bundled_kinds(self):
        kinds = available_schemes()
        for kind in ("figret", "dote", "teal", "des_te", "fa_des_te", "pred_te",
                     "oblivious", "cope", "omniscient"):
            assert kind in kinds

    def test_duplicate_registration_rejected(self):
        @register_scheme("unit_test_scheme")
        def _build(path_set, *, cache=None, **params):
            raise NotImplementedError

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme("unit_test_scheme")(_build)
        finally:
            from repro.study.spec import _SCHEME_BUILDERS

            _SCHEME_BUILDERS.pop("unit_test_scheme", None)

    def test_build_scheme_unknown_kind(self, mesh4_paths):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            build_scheme({"kind": "bogus"}, mesh4_paths)

    def test_build_scheme_missing_kind(self, mesh4_paths):
        with pytest.raises(ValueError, match="missing its 'kind'"):
            build_scheme({}, mesh4_paths)


# --------------------------------------------------------------------------- #
# Acceptance: the 3 x 3 x 2 grid from one plain-dict spec
# --------------------------------------------------------------------------- #
SCENARIO_NAMES = ("study_grid_a", "study_grid_b", "study_grid_c")

#: Three distinct neural scheme specs.  normalize_by_optimal=False keeps the
#: tiny trainings LP-free, so every LP solve in the grid is a replay
#: normaliser and the dedup accounting below is exact.
SCHEME_SPECS = (
    {"kind": "figret", "epochs": 2, "history_len": 3, "robustness_weight": 0.1,
     "normalize_by_optimal": False, "seed": 0},
    {"kind": "dote", "epochs": 2, "history_len": 3,
     "normalize_by_optimal": False, "seed": 0},
    {"kind": "teal", "epochs": 2, "normalize_by_optimal": False, "seed": 0},
)


@pytest.fixture(scope="module")
def grid_scenarios():
    for index, name in enumerate(SCENARIO_NAMES):
        register_scenario(name)(
            lambda seed, num_intervals, _i=index, _n=name: from_config(
                _tiny_config(_n, seed=seed + _i, num_intervals=num_intervals or 40)
            )
        )
    yield SCENARIO_NAMES
    for name in SCENARIO_NAMES:
        unregister_scenario(name)


@pytest.fixture(scope="module")
def grid_spec(grid_scenarios):
    return {
        "scenario": {"sweep": [{"name": name, "seed": 2} for name in grid_scenarios]},
        "scheme": {"sweep": list(SCHEME_SPECS)},
        "perturbation": {"sweep": [
            {"kind": "none"},
            {"kind": "fluctuation", "alpha": 0.5, "seed": 1},
        ]},
        "max_intervals": 4,
    }


class TestAcceptanceGrid:
    def test_grid_runs_with_zero_repeat_lp_solves(self, grid_spec):
        engine = EvaluationEngine(cache=OptimalMLUCache())
        study = Study(grid_spec)
        assert len(study) == 18  # 3 scenarios x 3 schemes x 2 perturbations

        with count_lp_solves() as cold:
            results = study.run(engine=engine)
        assert len(results) == 18
        # Normalisers: one solve per distinct demand matrix -- 4 evaluated
        # intervals per scenario per perturbation profile, shared by all 3
        # schemes.  3 scenarios x 2 profiles x 4 targets = 24.
        assert cold.count == 24

        # Re-running the identical grid (fresh Study, fresh scheme builds,
        # same engine) repeats zero LP solves across all 18 cells.
        with count_lp_solves() as warm:
            rerun = Study(grid_spec).run(engine=engine)
        assert warm.count == 0
        for first, second in zip(results, rerun):
            np.testing.assert_array_equal(first.series, second.series)

    def test_scheme_axis_adds_zero_solves(self, grid_spec):
        engine = EvaluationEngine(cache=OptimalMLUCache())
        single = dict(grid_spec)
        single["scheme"] = SCHEME_SPECS[0]
        with count_lp_solves() as first:
            Study(single).run(engine=engine)
        assert first.count == 24
        with count_lp_solves() as rest:
            Study(grid_spec).run(engine=engine)
        assert rest.count == 0

    def test_training_dedup_one_per_scheme_spec(self, grid_spec):
        cache: dict = {}
        study = Study(grid_spec, scheme_cache=cache)
        study.run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        # One trained scheme per scenario x scheme spec, shared by both
        # perturbation profiles.
        assert len(cache) == 9
        again = Study(grid_spec, scheme_cache=cache)
        schemes_before = dict(cache)
        again.run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        assert {key: id(value) for key, value in cache.items()} == {
            key: id(value) for key, value in schemes_before.items()
        }

    def test_resultset_json_roundtrip_with_provenance(self, grid_spec):
        results = Study(grid_spec).run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        restored = ResultSet.from_json(results.to_json())
        assert len(restored) == len(results)
        for original, loaded in zip(results, restored):
            assert loaded.scenario == original.scenario
            assert loaded.scheme == original.scheme
            assert loaded.experiment == original.experiment
            assert loaded.spec == original.spec
            assert loaded.metrics == original.metrics
            np.testing.assert_array_equal(loaded.series, original.series)
        # Provenance is complete: the cell is rebuildable from the record.
        record = restored[-1]
        assert record.spec["scenario"] == {"name": "study_grid_c", "seed": 2}
        assert record.spec["scheme"]["kind"] == "teal"
        assert record.spec["perturbation"]["alpha"] == 0.5
        assert record.spec["max_intervals"] == 4
        cell = ExperimentSpec.from_dict(record.spec)
        assert cell.scheme_key == ExperimentSpec.from_dict(
            {"scenario": record.spec["scenario"], "scheme": SCHEME_SPECS[2]}
        ).scheme_key


# --------------------------------------------------------------------------- #
# Experiment semantics: every cell kind == the engine calls it stands for
# --------------------------------------------------------------------------- #
class TestCellsMatchEngineCalls:
    """Declarative cells against the protocols written out by hand.

    ``Study`` is the only place the Section 5 protocols live, so they are
    pinned against something that does not go through it: each test builds,
    trains and perturbs its inputs explicitly, replays them with plain
    ``EvaluationEngine`` calls, and requires the declarative cell to
    reproduce the numbers bit for bit (numpy backend).
    """

    HISTORY = 3
    REFERENCE = {"name": SCENARIO_NAMES[0], "seed": 2}

    @pytest.fixture()
    def scenario(self, grid_scenarios):
        return load(grid_scenarios[0], seed=2)

    @staticmethod
    def _engine() -> EvaluationEngine:
        return EvaluationEngine(cache=OptimalMLUCache())

    @staticmethod
    def _figret(scenario, train_sequence) -> Figret:
        """SCHEME_SPECS[0], constructed and trained without the scheme registry."""
        params = {key: value for key, value in SCHEME_SPECS[0].items() if key != "kind"}
        scheme = Figret(scenario.paths, TrainingConfig(**params))
        scheme.precompute(train_sequence)
        return scheme

    @staticmethod
    def _assert_same_replay(record, direct) -> None:
        np.testing.assert_array_equal(record.series, direct.normalized_mlus)
        np.testing.assert_array_equal(record.result.raw_mlus, direct.raw_mlus)
        np.testing.assert_array_equal(record.result.optimal_mlus, direct.optimal_mlus)

    @staticmethod
    def _assert_same_declines(record, direct, base) -> None:
        """``direct`` replayed by hand, declines against the ``base`` statistics."""
        np.testing.assert_array_equal(record.series, direct.normalized_mlus)
        stats = direct.statistics
        assert record.metrics["average_decline"] == stats.mean / base.mean - 1.0
        assert record.metrics["p90_decline"] == stats.p90 / base.p90 - 1.0

    def test_live_scheme_cell_matches_evaluate_scheme(self, scenario):
        train, test = scenario.split()
        scheme = self._figret(scenario, train)
        direct = self._engine().evaluate_scheme(scheme, test, self.HISTORY)
        record = Study(
            {"scenario": self.REFERENCE, "scheme": scheme, "train": False}
        ).run(engine=self._engine())[0]
        self._assert_same_replay(record, direct)

    def test_scheme_axis_matches_per_scheme_replays(self, scenario):
        train, test = scenario.split()
        engine = self._engine()
        lp_schemes = [DesensitizationTE(scenario.paths), PredictionBasedTE(scenario.paths)]
        for scheme in lp_schemes:
            scheme.precompute(train)
        direct = {
            scheme.name: engine.evaluate_scheme(scheme, test, self.HISTORY)
            for scheme in [self._figret(scenario, train), *lp_schemes]
        }

        declarative = Study(
            {
                "scenario": self.REFERENCE,
                "scheme": sweep(dict(SCHEME_SPECS[0]), {"kind": "des_te"}, {"kind": "pred_te"}),
            }
        ).run(engine=self._engine())
        assert [record.scheme for record in declarative] == list(direct)
        for record in declarative:
            self._assert_same_replay(record, direct[record.scheme])

    @pytest.mark.parametrize(
        "worst_case, alphas, seed",
        [(False, (0.5, 2.0), 9), (True, (1.0,), 3)],
        ids=["natural", "worst_case"],
    )
    def test_fluctuation_cells_match_engine(self, scenario, worst_case, alphas, seed):
        train, test = scenario.split()
        scheme = self._figret(scenario, train)
        engine = self._engine()
        reference_std = train.pair_std()
        base = engine.evaluate_scheme(scheme, test, self.HISTORY).statistics
        perturb = reverse_rank_fluctuation if worst_case else gaussian_fluctuation

        results = Study(
            {
                "scenario": self.REFERENCE,
                "scheme": dict(SCHEME_SPECS[0]),
                "perturbation": sweep(
                    *[
                        {"kind": "fluctuation", "alpha": alpha, "worst_case": worst_case,
                         "seed": seed}
                        for alpha in alphas
                    ]
                ),
            }
        ).run(engine=self._engine())
        for alpha, record in zip(alphas, results):
            perturbed = perturb(test, alpha, reference_std, seed=seed)
            direct = engine.evaluate_scheme(scheme, perturbed, self.HISTORY)
            self._assert_same_declines(record, direct, base)

    def test_drift_cells_match_engine(self, scenario):
        segments = ((0.0, 0.25), (0.25, 0.5))
        traffic = scenario.traffic
        engine = self._engine()
        test = traffic.segment(0.75, 1.0)
        base = engine.evaluate_scheme(
            self._figret(scenario, traffic.segment(0.0, 0.75)), test, self.HISTORY
        ).statistics

        results = Study(
            {
                "scenario": self.REFERENCE,
                "scheme": dict(SCHEME_SPECS[0]),
                "perturbation": sweep(
                    *[{"kind": "drift", "train_segment": list(segment)} for segment in segments]
                ),
            }
        ).run(engine=self._engine())
        for segment, record in zip(segments, results):
            direct = engine.evaluate_scheme(
                self._figret(scenario, traffic.segment(*segment)), test, self.HISTORY
            )
            self._assert_same_declines(record, direct, base)

    def test_failure_cells_match_engine(self, scenario):
        _, test = scenario.split()
        # One multi-scheme call: per-trial failure patterns depend only on
        # the seed, so per-scheme cells must land on the same trials.
        direct = self._engine().failure_experiment(
            [DesensitizationTE(scenario.paths), FaultAwareDesensitizationTE(scenario.paths)],
            test,
            self.HISTORY,
            num_failures=1,
            num_trials=2,
            fault_aware_names=("FA Des TE",),
            seed=42,
        )
        results = Study(
            {
                "scenario": self.REFERENCE,
                "scheme": sweep({"kind": "des_te"}, {"kind": "fa_des_te"}),
                "perturbation": {"kind": "failure", "num_failures": 1, "num_trials": 2,
                                 "seed": 42},
                "train": False,
            }
        ).run(engine=self._engine())
        assert [record.scheme for record in results] == list(direct)
        for record in results:
            np.testing.assert_array_equal(record.series, direct[record.scheme])


# --------------------------------------------------------------------------- #
# Orchestration behaviour
# --------------------------------------------------------------------------- #
class TestStudyBehaviour:
    def test_streaming_cell_matches_batch(self, grid_scenarios):
        base = {
            "scenario": {"name": grid_scenarios[0], "seed": 2},
            "scheme": SCHEME_SPECS[1],
            "max_intervals": 6,
        }
        engine = EvaluationEngine(cache=OptimalMLUCache())
        cache: dict = {}
        batch = Study(base, scheme_cache=cache).run(engine=engine)[0]
        streaming_spec = dict(base, streaming=True, chunk_size=2)
        streaming = Study(streaming_spec, scheme_cache=cache).run(engine=engine)[0]
        np.testing.assert_allclose(streaming.series, batch.series, rtol=0, atol=1e-9)

    def test_live_scheme_path_set_mismatch_rejected(self, grid_scenarios, triangle_paths):
        from repro.solvers import PredictionBasedTE

        cell = ExperimentSpec(
            scenario={"name": grid_scenarios[0], "seed": 2},
            scheme=PredictionBasedTE(triangle_paths),
            train=False,
        )
        with pytest.raises(ValueError, match="different path set"):
            Study([cell]).run(engine=EvaluationEngine(cache=OptimalMLUCache()))

    def test_drift_rejects_live_instances(self, grid_scenarios, mesh4_paths):
        from repro.solvers import PredictionBasedTE

        cell = ExperimentSpec(
            scenario={"name": grid_scenarios[0], "seed": 2},
            scheme=PredictionBasedTE(mesh4_paths),
            perturbation={"kind": "drift", "train_segment": (0.0, 0.25)},
        )
        with pytest.raises(ValueError, match="retrain from scratch"):
            Study([cell]).run(engine=EvaluationEngine(cache=OptimalMLUCache()))

    def test_drift_rejects_train_false(self, grid_scenarios):
        cell = ExperimentSpec(
            scenario={"name": grid_scenarios[0], "seed": 2},
            scheme=dict(SCHEME_SPECS[0]),
            perturbation={"kind": "drift", "train_segment": (0.0, 0.25)},
            train=False,
        )
        with pytest.raises(ValueError, match="train=False"):
            Study([cell]).run(engine=EvaluationEngine(cache=OptimalMLUCache()))

    def test_drift_baselines_not_shared_across_test_segments(self, grid_scenarios):
        # Two drift cells with the same training prefix but different
        # held-out slices: each must measure its decline against a baseline
        # replayed on its *own* test segment.
        def cell(test_segment):
            return ExperimentSpec(
                scenario={"name": grid_scenarios[0], "seed": 2},
                scheme=dict(SCHEME_SPECS[0]),
                perturbation={
                    "kind": "drift",
                    "train_segment": (0.0, 0.25),
                    "test_segment": test_segment,
                },
            )

        engine = EvaluationEngine(cache=OptimalMLUCache())
        joint = Study([cell((0.5, 0.75)), cell((0.5, 1.0))]).run(engine=engine)
        alone = Study([cell((0.5, 1.0))]).run(engine=engine)
        assert joint[1].metrics["average_decline"] == alone[0].metrics["average_decline"]

    def test_registry_reference_rejects_unknown_keys(self, grid_scenarios):
        with pytest.raises(ValueError, match="unknown scenario reference key"):
            ExperimentSpec(
                scenario={"name": grid_scenarios[0], "intervals": 10},
                scheme=dict(SCHEME_SPECS[0]),
            ).scenario_key

    def test_failure_cell_rejects_streaming_and_oracle_knobs(self, grid_scenarios):
        for knob in ({"streaming": True}, {"oracle_demand": True}):
            cell = ExperimentSpec(
                scenario={"name": grid_scenarios[0], "seed": 2},
                scheme=dict(SCHEME_SPECS[0]),
                perturbation={"kind": "failure", "num_failures": 1, "num_trials": 1},
                **knob,
            )
            with pytest.raises(ValueError, match="batched failure protocol"):
                Study([cell]).run(engine=EvaluationEngine(cache=OptimalMLUCache()))

    def test_failure_cell_resets_fault_aware_scheme_state(self, grid_scenarios):
        # A fault-aware scheme mutated by the failure protocol must be handed
        # to subsequent cells (and warm re-runs via a shared cache) with an
        # intact network, so its plain replay matches a never-failed one.
        spec = {
            "scenario": {"name": grid_scenarios[0], "seed": 2},
            "scheme": {"kind": "fa_des_te"},
            "perturbation": {"sweep": [
                {"kind": "failure", "num_failures": 1, "num_trials": 2, "seed": 5},
                {"kind": "none"},
            ]},
            "max_intervals": 4,
        }
        engine = EvaluationEngine(cache=OptimalMLUCache())
        after_failure = Study(spec).run(engine=engine).only(experiment="replay")
        clean = Study(
            {k: v for k, v in spec.items() if k != "perturbation"}
        ).run(engine=engine).only(experiment="replay")
        np.testing.assert_array_equal(after_failure.series, clean.series)

    def test_fault_aware_needs_set_failures(self):
        # A scheme that cannot be told the failed links must not skip
        # rerouting: it would keep routing over dead links and "beat" the
        # failure oracle (pred_te here came back with every value < 1).
        def run(fault_aware):
            return Study(
                {
                    "scenario": {"name": "meta_pod_db_small", "seed": 3, "num_intervals": 60},
                    "scheme": {"kind": "pred_te"},
                    "perturbation": {"kind": "failure", "num_failures": 2, "num_trials": 4,
                                     "fault_aware": fault_aware},
                    "max_intervals": 6,
                }
            ).run(engine=EvaluationEngine(cache=OptimalMLUCache()))[0]

        with pytest.raises(ValueError, match="fault_aware.*'pred_te'.*set_failures"):
            run(True)
        rerouted = run(None)  # the default: pred_te has no set_failures
        assert (rerouted.series >= 1.0 - 1e-6).all()
        np.testing.assert_array_equal(run(False).series, rerouted.series)

        scenario = load("meta_pod_db_small", seed=3, num_intervals=60)
        scheme = PredictionBasedTE(scenario.paths)
        with pytest.raises(ValueError, match="'Pred TE \\(last\\)'.*set_failures"):
            EvaluationEngine().failure_experiment(
                [scheme], scenario.split()[1], scenario.history_len, num_failures=2,
                num_trials=1, fault_aware_names=(scheme.name,),
            )

    def test_study_rejects_unknown_spec_type(self):
        with pytest.raises(TypeError, match="Study accepts"):
            Study(42)

    def test_from_spec_and_from_json_expand_identically(self):
        spec = {
            "scenario": {"sweep": ["a", "b"]},
            "scheme": {"kind": "dote"},
        }
        built = Study.from_spec(spec)
        parsed = Study.from_json(json.dumps(spec))
        assert len(built) == len(parsed) == 2
        assert [cell.scenario for cell in built.specs] == [
            cell.scenario for cell in parsed.specs
        ]

    def test_labels_rename_records(self, grid_scenarios):
        spec = {
            "scenario": {"name": grid_scenarios[0], "seed": 2},
            "scheme": dict(SCHEME_SPECS[0], label="MyFigret"),
            "max_intervals": 3,
        }
        results = Study(spec).run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        assert results[0].scheme == "MyFigret"

    def test_filter_and_only(self, grid_spec):
        results = Study(grid_spec).run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        replay = results.filter(experiment="replay")
        assert len(replay) == 9
        one = results.only(
            scenario="study_grid_a", scheme="DOTE", experiment="fluctuation"
        )
        assert one.metrics["average_decline"] == pytest.approx(
            one.statistics.mean / results.only(
                scenario="study_grid_a", scheme="DOTE", experiment="replay"
            ).statistics.mean - 1.0
        )
        with pytest.raises(ValueError, match="exactly one"):
            results.only(scheme="DOTE")


class TestCellPool:
    """What crosses the cell pool's process boundary: names, and a width of 1."""

    @staticmethod
    def _spec():
        return {
            "scenario": _tiny_config("cell_pool_mesh"),
            "scheme": {"sweep": [
                {"kind": "dote", "epochs": 1, "history_len": 3, "seed": 0},
                {"kind": "pred_te"},
            ]},
            "max_intervals": 3,
        }

    def test_unregistered_lp_backend_runs_its_cells_in_process(self):
        # A worker can only rebuild an LP backend from its registry name; an
        # instance named outside the registry must not be shipped as one.
        from repro.solvers.lp_backend import ScipyLinprogBackend

        class Mine(ScipyLinprogBackend):
            name = "mine"

        def run(**kwargs):
            engine = EvaluationEngine(cache=OptimalMLUCache(backend=Mine()))
            return Study(self._spec()).run(engine=engine, **kwargs)

        assert run(cell_workers=2).to_json() == run().to_json()

    def test_explicit_width_one_never_opens_a_pool(self, monkeypatch, mesh4_paths, rng):
        from repro.solvers import lp as lp_module
        from repro.study.study import _run_cells_job

        def no_pool(workers):
            raise AssertionError(f"LP pool of width {workers} opened under an explicit 1")

        monkeypatch.setenv("REPRO_LP_WORKERS", "2")
        monkeypatch.setattr(lp_module, "_pool", no_pool)
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        engine = EvaluationEngine(cache=OptimalMLUCache(workers=1))
        assert engine.optimal_mlus(mesh4_paths, demands).shape == (4,)
        # The cell-pool worker, run here in-process: trainings and replays.
        cells = list(enumerate(Study(self._spec()).specs))
        finished, new_entries, _, error, _ = _run_cells_job((cells, None, None, {}, {}))
        assert error is None
        assert len(finished) == len(cells) and new_entries


class TestStudyCLI:
    def test_cli_runs_spec_and_writes_results(self, tmp_path, grid_scenarios, capsys):
        spec = {
            "scenario": {"name": grid_scenarios[0], "seed": 2},
            "scheme": {"sweep": [SCHEME_SPECS[0], SCHEME_SPECS[1]]},
            "max_intervals": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "results.json"
        assert study_cli([str(spec_path), "--out", str(out_path)]) == 0
        captured = capsys.readouterr().out
        assert "2 experiment cell(s)" in captured
        restored = ResultSet.load(out_path)
        assert [record.scheme for record in restored] == ["FIGRET", "DOTE"]

    def test_unknown_backend_is_a_usage_error(self, capsys):
        """``--backend`` / ``--lp-backend`` are checked against their
        registries while parsing: exit 2 and one line naming the known
        backends, before anything runs (the spec file is never opened)."""
        from repro.backend import available_backends
        from repro.solvers.lp_backend import available_lp_backends

        known = {
            "--backend": ", ".join(sorted(available_backends())),
            "--lp-backend": ", ".join(sorted(available_lp_backends())),
        }
        commands = (["spec.json"], ["suite", "suite.json"], ["serve", "--socket", "s.sock"])
        for command in commands:
            for flag, names in known.items():
                with pytest.raises(SystemExit) as excinfo:
                    study_cli([*command, flag, "nope"])
                assert excinfo.value.code == 2
                captured = capsys.readouterr()
                assert f"argument {flag}: unknown" in captured.err
                assert f"known backends: {names}" in captured.err
                assert captured.out == ""

    def test_cli_lists_registries(self, capsys):
        assert study_cli(["--list-scenarios"]) == 0
        assert "geant_small" in capsys.readouterr().out
        assert study_cli(["--list-schemes"]) == 0
        assert "figret" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# What a study process loads
# --------------------------------------------------------------------------- #
_IMPORT_HYGIENE_SCRIPT = """
import json, sys, tempfile
from pathlib import Path

def loaded():
    return "scipy.stats" in sys.modules

import repro.study
assert not loaded(), "import repro.study loads scipy.stats"

from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import OptimalMLUCache
from repro.study import ResultWarehouse, Study
from repro.traffic.perturb import variance_rank_spearman

spec = {
    "scenario": json.loads(sys.argv[1]),
    "scheme": {"kind": "dote", "epochs": 1, "history_len": 3, "seed": 0},
    "perturbation": {"sweep": [{"kind": "none"}, {"kind": "fluctuation", "alpha": 1.0}]},
    "max_intervals": 3,
}
with tempfile.TemporaryDirectory() as scratch:
    warehouse = ResultWarehouse(Path(scratch) / "records.jsonl")
    results = Study(spec).run(
        engine=EvaluationEngine(cache=OptimalMLUCache()), warehouse=warehouse
    )
    assert [record.experiment for record in results] == ["replay", "fluctuation"]
    assert not loaded(), "a study loads scipy.stats"
    (row,) = warehouse.aggregate(group_by=("scheme",))
    # Two records pooled: the Student-t half-width was computed.
    assert row["n"] == 2 and row["ci95"] > 0.0, row
    assert not loaded(), "aggregate loads scipy.stats"
variance_rank_spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
assert loaded(), "this test no longer sees the import it guards against"
"""


def test_scipy_stats_is_loaded_by_its_one_caller_only():
    """No timing: ``scipy.stats`` costs 0.4 s and 23 MB in every process
    (CLI run, daemon, pool worker), and a study needs nothing from it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_HYGIENE_SCRIPT, json.dumps(_tiny_config("hygiene_mesh"))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
