"""ToR-level data center scenario: where fine-grained robustness matters most.

Run with::

    python examples/datacenter_tor.py

ToR-level traffic is the most dynamic workload in the paper (Figure 4); this
is where FIGRET's advantage over DOTE is largest (Figure 5(b)).  The example
trains both schemes on a scaled-down Meta-like ToR cluster, compares severe
congestion events, and prints the per-pair sensitivity-versus-variance
breakdown behind Figure 8.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation import reporting
from repro.study import Study, sweep
from repro.te.sensitivity import max_sensitivity_per_pair

SCENARIO = {"name": "meta_tor_db_small", "seed": 11, "num_intervals": 220}


def main() -> None:
    study = Study()
    scenario = study.scenario(SCENARIO)  # built once; the cells below share it
    train, test = scenario.split()
    print(f"Scenario: {scenario.name} - {scenario.description}")
    print(
        f"Topology: {scenario.topology.num_nodes} ToRs, {scenario.topology.num_edges} links, "
        f"{scenario.paths.num_paths} candidate paths\n"
    )

    training = {"epochs": 30, "history_len": scenario.history_len, "robustness_weight": 0.2}
    figret_spec = {"kind": "figret", **training}
    study.add(
        {
            "scenario": SCENARIO,
            "scheme": sweep(figret_spec, {"kind": "dote", **training}, {"kind": "des_te"}),
        }
    )
    statistics = study.run().scheme_statistics()
    print(reporting.format_mlu_comparison(statistics, title="ToR-level cluster, normalised MLU"))

    figret_sc = statistics["FIGRET"].severe_congestion_fraction
    dote_sc = statistics["DOTE"].severe_congestion_fraction
    if dote_sc > 0:
        print(
            f"\nSevere congestion events (normalised MLU > 2): FIGRET {figret_sc * 100:.1f}% "
            f"vs DOTE {dote_sc * 100:.1f}% "
            f"({(1 - figret_sc / dote_sc) * 100:.0f}% fewer)"
        )

    # Figure 8 style analysis: sensitivity follows per-pair variance.
    variance = train.pair_variance()
    variance = variance / variance.max()
    flat = test.flat_demands()
    history = flat[: scenario.history_len]
    figret = study.trained_scheme({"scenario": SCENARIO, "scheme": figret_spec})  # cache hit
    fig_sens = max_sensitivity_per_pair(scenario.paths, figret.configure(history), normalized=True)
    stable = variance < np.percentile(variance, 50)
    bursty = variance > np.percentile(variance, 90)
    print(
        "\nFIGRET mean max-sensitivity (Figure 8): "
        f"stable pairs {fig_sens[stable].mean():.3f} vs bursty pairs {fig_sens[bursty].mean():.3f}"
    )


if __name__ == "__main__":
    main()
