"""Fine-grained robustness without deep learning (Appendix C).

Run with::

    python examples/heuristic_hedging.py

The paper shows that even simple heuristic per-pair sensitivity constraints
(linear or piecewise functions of each pair's traffic variance) improve on
Google Jupiter's fixed-threshold hedging.  This example reproduces that
comparison on a PoD-level scenario and contrasts it with FIGRET, which learns
the constraint structure end to end.
"""

from __future__ import annotations

from repro.evaluation import reporting
from repro.study import Study, sweep

SCENARIO = {"name": "meta_pod_db_small", "seed": 13, "num_intervals": 220}


def main() -> None:
    study = Study()
    scenario = study.scenario(SCENARIO)  # built once; the cells below share it
    print(f"Scenario: {scenario.name} - {scenario.description}\n")

    study.add(
        {
            "scenario": SCENARIO,
            "scheme": sweep(
                {"kind": "des_te"},                             # fixed threshold (Jupiter)
                {"kind": "linear_sens"},                        # Appendix C.1, strategy "Both"
                {"kind": "piecewise_sens", "breakpoint": 0.8},  # Appendix C.2
                {"kind": "figret", "epochs": 30, "history_len": scenario.history_len},
            ),
        }
    )
    statistics = study.run().scheme_statistics()
    print(
        reporting.format_mlu_comparison(
            statistics,
            title="Fixed vs heuristic fine-grained vs learned robustness (normalised MLU)",
        )
    )


if __name__ == "__main__":
    main()
