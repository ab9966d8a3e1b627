"""Quickstart: train FIGRET on a small data center scenario and evaluate it.

Run with::

    python examples/quickstart.py

The script declares one study -- a bundled scenario (a Meta-like PoD-level
cluster) x a scheme axis -- which trains FIGRET and the DOTE baseline on the
first 75% of the trace, evaluates every scheme on the remaining 25% against
one shared set of omniscient normalisers, and prints the normalised-MLU
comparison that mirrors the paper's Figure 5.
"""

from __future__ import annotations

from repro.evaluation import reporting
from repro.study import Study, sweep

SCENARIO = {"name": "meta_pod_db_small", "seed": 7, "num_intervals": 240}


def main() -> None:
    study = Study()
    scenario = study.scenario(SCENARIO)  # built once; the cells below share it
    train, test = scenario.split()
    print(f"Scenario: {scenario.name} - {scenario.description}")
    print(
        f"Topology: {scenario.topology.num_nodes} nodes, "
        f"{scenario.topology.num_edges} edges, "
        f"{scenario.paths.num_paths} candidate paths"
    )
    print(f"Trace: {len(scenario.traffic)} intervals ({len(train)} train / {len(test)} test)\n")

    training = {"epochs": 30, "history_len": scenario.history_len, "robustness_weight": 0.1}
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
    print(reporting.format_mlu_comparison(statistics, title="Normalised MLU (1.0 = omniscient optimum)"))

    figret_stats = statistics["FIGRET"]
    des_stats = statistics["Des TE"]
    reduction = 1.0 - figret_stats.mean / des_stats.mean
    print(
        f"\nFIGRET reduces the average MLU by {reduction * 100:.1f}% versus the "
        "Desensitization (Google Jupiter hedging) baseline on this scenario."
    )


if __name__ == "__main__":
    main()
