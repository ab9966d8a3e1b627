"""Unit tests for the evaluation harness (metrics, replay protocols, reporting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.metrics import (
    SEVERE_CONGESTION_THRESHOLD,
    mean_confidence_interval,
    normalized_mlu_statistics,
    severe_congestion_fraction,
)
from repro.evaluation.reporting import format_mlu_comparison, format_table
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import OmniscientTE, PredictionBasedTE
from repro.study import InlineScenario, Study, sweep


class TestMetrics:
    def test_statistics_of_constant_series(self):
        stats = normalized_mlu_statistics(np.full(50, 1.25))
        assert stats.mean == pytest.approx(1.25)
        assert stats.median == pytest.approx(1.25)
        assert stats.worst == pytest.approx(1.25)
        assert stats.severe_congestion_fraction == 0.0
        assert stats.num_samples == 50

    def test_percentile_ordering(self, rng):
        stats = normalized_mlu_statistics(1.0 + rng.random(200))
        assert stats.p25 <= stats.median <= stats.p75 <= stats.p90 <= stats.p95 <= stats.p99 <= stats.worst

    def test_severe_congestion_fraction(self):
        series = np.array([1.0, 1.5, 2.5, 3.0])
        assert severe_congestion_fraction(series) == pytest.approx(0.5)
        assert severe_congestion_fraction(series, threshold=2.9) == pytest.approx(0.25)
        assert SEVERE_CONGESTION_THRESHOLD == 2.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            normalized_mlu_statistics(np.array([]))
        with pytest.raises(ValueError):
            severe_congestion_fraction(np.array([]))


class TestMeanConfidenceInterval:
    def test_matches_student_t_by_hand(self):
        # Exactly: the quantile comes from scipy.special.stdtrit, which is
        # all scipy.stats.t.ppf computes.
        from scipy import stats

        rng = np.random.default_rng(0)
        for df in [*range(1, 60), 100, 1000, 10**6]:
            values = rng.random(df + 1)
            sem = float(values.std(ddof=1)) / float(np.sqrt(values.size))
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                mean, half = mean_confidence_interval(values, confidence=confidence)
                assert mean == float(values.mean())
                assert half == float(stats.t.ppf(0.5 + confidence / 2.0, df) * sem), (
                    df, confidence
                )
        mean, half = mean_confidence_interval([1.0, 2.0, 3.0], confidence=0.95)
        assert mean == pytest.approx(2.0)
        assert half == pytest.approx(4.302652729911275 / np.sqrt(3))

    def test_single_sample_has_zero_half_width(self):
        assert mean_confidence_interval([1.7]) == (pytest.approx(1.7), 0.0)

    def test_constant_sample_has_zero_half_width(self):
        mean, half = mean_confidence_interval([2.0, 2.0, 2.0, 2.0])
        assert mean == pytest.approx(2.0)
        assert half == pytest.approx(0.0)

    def test_higher_confidence_widens_the_interval(self):
        values = [1.0, 1.4, 2.2, 0.9]
        _, narrow = mean_confidence_interval(values, confidence=0.5)
        _, wide = mean_confidence_interval(values, confidence=0.99)
        assert narrow < wide

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_confidence_interval([])
        with pytest.raises(ValueError, match="confidence"):
            mean_confidence_interval([1.0], confidence=1.0)
        with pytest.raises(ValueError, match="confidence"):
            mean_confidence_interval([1.0], confidence=0.0)


class TestRunner:
    """The Section 5 protocols: engine replays, and Study cells on the mesh."""

    @staticmethod
    def _run(paths, traffic, schemes, perturbations=({"kind": "none"},), test_len=16):
        """Untrained scheme specs x perturbations on the mesh's 70/30 split."""
        train, test = traffic.split(0.7)
        scenario = InlineScenario(
            paths=paths, train=train, test=test[:test_len], history_len=4, name="mesh4"
        )
        return Study(
            {
                "scenario": scenario,
                "scheme": sweep(*schemes),
                "perturbation": sweep(*perturbations),
                "train": False,
            }
        ).run(engine=EvaluationEngine())

    def test_omniscient_normalized_mlu_is_one(self, mesh4_paths, mesh4_traffic):
        scheme = OmniscientTE(mesh4_paths)
        result = EvaluationEngine().evaluate_scheme(
            scheme, mesh4_traffic[:20], history_len=4, oracle_demand=True
        )
        np.testing.assert_allclose(result.normalized_mlus, 1.0, atol=1e-5)

    def test_normalization_uses_optimal(self, mesh4_paths, mesh4_traffic):
        test = mesh4_traffic[:20]
        engine = EvaluationEngine()
        optimal = engine.optimal_mlus(mesh4_paths, test.flat_demands())
        scheme = PredictionBasedTE(mesh4_paths)
        result = engine.evaluate_scheme(scheme, test, history_len=4, optimal_mlus=optimal)
        np.testing.assert_allclose(result.raw_mlus / result.optimal_mlus, result.normalized_mlus)
        assert (result.normalized_mlus >= 1.0 - 1e-6).all()

    def test_too_short_sequence_rejected(self, mesh4_paths, mesh4_traffic):
        with pytest.raises(ValueError):
            EvaluationEngine().evaluate_scheme(
                PredictionBasedTE(mesh4_paths), mesh4_traffic[:3], history_len=5
            )
        # The same trace as a study cell's test split: rejected, not truncated.
        with pytest.raises(ValueError):
            self._run(mesh4_paths, mesh4_traffic, [{"kind": "pred_te"}], test_len=3)

    def test_compare_schemes_shares_normalisation(self, mesh4_paths, mesh4_traffic):
        results = self._run(
            mesh4_paths, mesh4_traffic, [{"kind": "pred_te"}, {"kind": "des_te"}]
        )
        assert [record.scheme for record in results] == ["Pred TE (last)", "Des TE"]
        np.testing.assert_array_equal(
            results[0].result.optimal_mlus, results[1].result.optimal_mlus
        )

    def test_fluctuation_experiment_structure(self, mesh4_paths, mesh4_traffic):
        alphas = (0.5, 2.0)
        results = self._run(
            mesh4_paths, mesh4_traffic, [{"kind": "des_te"}],
            [{"kind": "fluctuation", "alpha": alpha, "seed": 1} for alpha in alphas],
        )
        assert [record.spec["perturbation"]["alpha"] for record in results] == list(alphas)
        for record in results:
            assert record.experiment == "fluctuation"
            assert {"average_decline", "p90_decline"} <= set(record.metrics)

    def test_larger_fluctuations_cause_larger_decline(self, mesh4_paths, mesh4_traffic):
        small, large = self._run(
            mesh4_paths, mesh4_traffic, [{"kind": "pred_te"}],
            [{"kind": "fluctuation", "alpha": alpha, "seed": 3} for alpha in (0.2, 2.0)],
        )
        assert large.metrics["average_decline"] >= small.metrics["average_decline"] - 0.02

    def test_worst_case_fluctuation_at_least_as_bad(self, mesh4_paths, mesh4_traffic):
        natural, worst = self._run(
            mesh4_paths, mesh4_traffic, [{"kind": "pred_te"}],
            [
                {"kind": "fluctuation", "alpha": 1.0, "seed": 5, "worst_case": worst_case}
                for worst_case in (False, True)
            ],
        )
        # Not strictly guaranteed sample-by-sample, but the adversarial
        # reassignment should not make things dramatically easier.
        assert worst.metrics["average_decline"] >= natural.metrics["average_decline"] - 0.1

    def test_drift_experiment_structure(self, mesh4_paths, mesh4_traffic):
        segments = [[0.0, 0.25], [0.5, 0.75]]
        scenario = InlineScenario(
            paths=mesh4_paths, traffic=mesh4_traffic, history_len=4, name="mesh4"
        )
        results = Study(
            {
                "scenario": scenario,
                "scheme": {"kind": "des_te"},
                "perturbation": sweep(
                    *[{"kind": "drift", "train_segment": segment} for segment in segments]
                ),
            }
        ).run(engine=EvaluationEngine())
        assert [record.spec["perturbation"]["train_segment"] for record in results] == segments
        for record in results:
            assert record.experiment == "drift"
            assert {"average_decline", "p90_decline"} <= set(record.metrics)

    def test_failure_experiment_fault_aware_wins(self, mesh4_paths, mesh4_traffic):
        # test_len=8 with history_len=4: four evaluated intervals per trial.
        results = self._run(
            mesh4_paths, mesh4_traffic, [{"kind": "des_te"}, {"kind": "fa_des_te"}],
            [{"kind": "failure", "num_failures": 1, "num_trials": 2, "seed": 0}],
            test_len=8,
        )
        series = {record.scheme: record.series for record in results}
        assert set(series) == {"Des TE", "FA Des TE"}
        assert series["FA Des TE"].mean() <= series["Des TE"].mean() + 0.15
        # The oracle knows the failures: no scheme, told of them or rerouted
        # around them, can beat it.
        for values in series.values():
            assert (values >= 1.0 - 1e-6).all()


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_mlu_comparison(self, rng):
        stats = {"X": normalized_mlu_statistics(1 + rng.random(10))}
        text = format_mlu_comparison(stats, title="cmp")
        assert "X" in text
        assert "severe>2" in text
