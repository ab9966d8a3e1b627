"""Suites and the results warehouse: a whole evaluation campaign as data.

Run with::

    python examples/suite_warehouse.py

One JSON-able descriptor declares two studies, a seeds axis (each seed
regenerates the synthetic traffic) and a repetition count.  ``Study`` tells
the descriptor from a study spec by its keys, expands it into experiment
cells with ``suite`` / ``study`` / ``seed`` / ``repetition`` provenance
stamped into every record, and runs them with a ``ResultWarehouse``
attached -- a durable, append-only JSONL store that
accumulates finished cells across sessions.  The warehouse then answers the
campaign's questions directly: filtered queries, per-group mean +/- 95% CI
over the seed axis with percentile columns recomputed from the pooled
stored series, and a flat CSV export for notebooks.

The same flow runs from the shell::

    python -m repro.study suite.json --warehouse wh.jsonl --checkpoint run.ckpt
    python -m repro.study query wh.jsonl --study replay --group-by scenario,scheme
    python -m repro.study export wh.jsonl results.csv
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.study import ResultWarehouse, Study

#: The whole campaign, as one plain dict (this could be a JSON file).
DESCRIPTOR = {
    "name": "tutorial-campaign",
    "annotations": {"purpose": "suite-example"},
    "seeds": [1, 2, 3],
    "repetitions": 2,
    "studies": [
        {"name": "replay", "spec": {
            "scenario": {
                "name": "tutorial_mesh",
                "topology": {"kind": "fully_connected", "num_nodes": 5, "capacity": 40.0},
                "traffic": {"kind": "datacenter", "level": "pod", "num_intervals": 60},
                "history_len": 4,
            },
            "scheme": {"sweep": [
                {"kind": "figret", "epochs": 8, "history_len": 4,
                 "robustness_weight": 0.1, "seed": 0},
                {"kind": "dote", "epochs": 8, "history_len": 4, "seed": 0},
            ]},
            "max_intervals": 10,
        }},
        {"name": "fluctuation", "spec": {
            "scenario": {
                "name": "tutorial_mesh",
                "topology": {"kind": "fully_connected", "num_nodes": 5, "capacity": 40.0},
                "traffic": {"kind": "datacenter", "level": "pod", "num_intervals": 60},
                "history_len": 4,
            },
            "scheme": {"kind": "figret", "epochs": 8, "history_len": 4,
                       "robustness_weight": 0.1, "seed": 0},
            "perturbation": {"kind": "fluctuation", "alpha": 1.0},
            "max_intervals": 10,
        }},
    ],
}


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_suite_"))
    warehouse_path = workdir / "warehouse.jsonl"

    suite = Study(DESCRIPTOR)
    print(f"Suite {DESCRIPTOR['name']!r} expanded to {len(suite)} cells "
          "((2 + 1) study cells x 3 seeds x 2 repetitions).")

    # Every finished cell is appended to the warehouse as the study commits it; a
    # crashed run resumed from a checkpoint reconciles the store instead of
    # duplicating records.
    results = suite.run(warehouse=warehouse_path, checkpoint=workdir / "run.ckpt")
    print(f"Warehoused {len(results)} records in {warehouse_path}.\n")

    warehouse = ResultWarehouse(warehouse_path)

    # Aggregate over the suite axes: the seed/repetition spread becomes a
    # mean +/- 95% CI per (scenario, scheme, experiment) group, and the
    # percentile columns are recomputed from the pooled stored series.
    print(warehouse.aggregate_table(
        title="Campaign summary (mean +/- ci95 over 3 seeds x 2 repetitions)"
    ))

    # Queries slice by labels and provenance tags alike.
    replay_figret = warehouse.query(study="replay", scheme="FIGRET")
    seeds = sorted({record.tags["seed"] for record in replay_figret})
    print(f"\nFIGRET replay records: {len(replay_figret)} across seeds {seeds}")

    per_seed = warehouse.aggregate(replay_figret, group_by=("scheme", "seed"))
    for row in per_seed:
        print(f"  seed {row['seed']}: mean normalised MLU {row['mean']:.3f} "
              f"(n={row['n']})")

    # One flat row per record, ready for pandas / gnuplot.
    csv_path = workdir / "campaign.csv"
    count = warehouse.export_csv(csv_path)
    print(f"\nExported {count} rows to {csv_path}.")


if __name__ == "__main__":
    main()
