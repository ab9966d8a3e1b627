"""Ablation: the robustness-weight knob that separates DOTE from FIGRET.

``robustness_weight`` (the Lagrangian weight on the variance-weighted
sensitivity term, Equation 8) is the design choice to ablate.  Weight 0 recovers DOTE; increasing the weight trades a little
average-case MLU for fewer burst-induced congestion events and lower
sensitivity on bursty pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

import bench_common as common
from repro.evaluation.reporting import format_table
from repro.te.sensitivity import max_sensitivity_per_pair

WEIGHTS = (0.0, 0.1, 0.3, 1.0)


@pytest.mark.paper("Ablation (Section 4.3 / Equation 8)")
def test_ablation_robustness_weight(benchmark):
    scenario_name = "meta_tor_db_small"
    scenario = common.get_scenario(scenario_name)
    train, _ = scenario.split()

    def run():
        outcome = {}
        for weight in WEIGHTS:
            kind = "dote" if weight == 0.0 else "figret"
            scheme = common.trained_scheme(kind, scenario_name, weight, 35)
            result = common.evaluate_on_scenario(scheme, scenario)
            history = common.test_slice(scenario).flat_demands()[: scenario.history_len]
            sens = max_sensitivity_per_pair(
                scenario.paths, scheme.configure(history), normalized=True
            )
            variance = train.pair_variance()
            bursty = variance >= np.percentile(variance, 90)
            outcome[weight] = {
                "stats": result.statistics,
                "bursty_sensitivity": float(sens[bursty].mean()),
            }
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for weight, entry in outcome.items():
        stats = entry["stats"]
        rows.append([
            f"{weight:.1f}" + (" (DOTE)" if weight == 0 else ""),
            f"{stats.mean:.3f}",
            f"{stats.p99:.3f}",
            f"{stats.severe_congestion_fraction * 100:.1f}%",
            f"{entry['bursty_sensitivity']:.3f}",
        ])
    print()
    print(format_table(
        ["robustness weight", "mean", "p99", "severe>2", "S^max on bursty pairs"],
        rows,
        title=f"Ablation ({scenario_name}): effect of the Equation-8 weight",
    ))
    benchmark.extra_info["outcome"] = {
        str(w): {"mean": e["stats"].mean, "p99": e["stats"].p99,
                 "severe": e["stats"].severe_congestion_fraction,
                 "bursty_sensitivity": e["bursty_sensitivity"]}
        for w, e in outcome.items()
    }

    # Increasing the weight reduces the sensitivity FIGRET assigns to bursty
    # pairs, and a moderate weight must not blow up the average MLU.
    assert outcome[1.0]["bursty_sensitivity"] <= outcome[0.0]["bursty_sensitivity"] + 1e-6
    assert outcome[0.3]["stats"].mean <= outcome[0.0]["stats"].mean * 1.15
