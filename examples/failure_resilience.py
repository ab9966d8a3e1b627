"""Link-failure resilience (the paper's Figure 7 scenario).

Run with::

    python examples/failure_resilience.py

Random physical links fail; every scheme's configuration (computed before the
failure) reroutes traffic from failed paths onto surviving paths as described
in Section 4.5.  MLUs are normalised against an oracle that knows both the
future demand and the failures.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.reporting import format_table
from repro.study import Study, sweep

SCENARIO = {"name": "geant_small", "seed": 5, "num_intervals": 160}
FAILURE_COUNTS = (1, 2, 3)


def main() -> None:
    study = Study()
    history_len = study.scenario(SCENARIO).history_len
    training = {"epochs": 25, "history_len": history_len, "robustness_weight": 0.1}
    # Each scheme trains once and replays under every failure profile.  A
    # failure cell's "fault_aware" defaults to whether the scheme can be told
    # the failed links (only FA Des TE has set_failures); every other scheme's
    # pre-failure configuration is rerouted around them.
    study.add(
        {
            "scenario": SCENARIO,
            "scheme": sweep(
                {"kind": "figret", **training},
                {"kind": "dote", **training},
                {"kind": "des_te"},
                {"kind": "fa_des_te"},
            ),
            "perturbation": sweep(
                *[
                    {"kind": "failure", "num_failures": count, "num_trials": 3, "seed": count}
                    for count in FAILURE_COUNTS
                ]
            ),
            "max_intervals": 6,
        }
    )
    results = study.run()

    means = {
        (record.scheme, record.spec["perturbation"]["num_failures"]): np.mean(record.series)
        for record in results
    }
    rows = [
        [str(count)]
        + [f"{means[name, count]:.3f}" for name in ("FIGRET", "DOTE", "Des TE", "FA Des TE")]
        for count in FAILURE_COUNTS
    ]

    print(
        format_table(
            ["#failures", "FIGRET", "DOTE", "Des TE", "FA Des TE"],
            rows,
            title="Mean normalised MLU under random link failures (GEANT-like)",
        )
    )


if __name__ == "__main__":
    main()
