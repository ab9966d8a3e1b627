"""WAN scenario: FIGRET on a GEANT-like topology with bursty WAN traffic.

Run with::

    python examples/wan_geant.py

This example mirrors the paper's WAN evaluation: a 23-node GEANT-like
backbone carrying mostly-stable traffic with occasional unexpected bursts.
It also demonstrates the traffic-analysis utilities behind Figures 2 and 4
(per-pair variance spread and cosine-similarity burstiness profile).
"""

from __future__ import annotations

import numpy as np

from repro.evaluation import reporting
from repro.study import Study, sweep
from repro.traffic import stats

SCENARIO = {"name": "geant_small", "seed": 21, "num_intervals": 260}


def main() -> None:
    study = Study()
    scenario = study.scenario(SCENARIO)  # built once; the cells below share it
    print(f"Scenario: {scenario.name} - {scenario.description}\n")

    # Traffic analysis (Figures 2 and 4).
    variance = stats.normalized_variance_matrix(scenario.traffic)
    profile = stats.burstiness_summary(scenario.traffic, history=12)
    print("Per-pair variance spread (Figure 2): "
          f"median={np.median(variance[variance > 0]):.4f}, max=1.0000")
    print(
        "Cosine-similarity profile (Figure 4): "
        f"p05={profile['p05']:.3f}, p50={profile['p50']:.3f}, p95={profile['p95']:.3f}\n"
    )

    training = {"epochs": 60, "history_len": scenario.history_len, "robustness_weight": 0.1}
    study.add(
        {
            "scenario": SCENARIO,
            "scheme": sweep(
                {"kind": "figret", **training},
                {"kind": "dote", **training},
                {"kind": "des_te"},
                {"kind": "pred_te"},
            ),
        }
    )
    statistics = study.run().scheme_statistics()
    print(reporting.format_mlu_comparison(statistics, title="GEANT-like WAN, normalised MLU"))


if __name__ == "__main__":
    main()
