"""A suite through the CLI: run it into a warehouse, query it, export it.

    PYTHONPATH=src python benchmarks/suite_cli_smoke.py [WORKDIR]

Writes a 2-study x 2-seed x 2-repetition suite descriptor and runs the main
form, ``python -m repro.study suite.json --warehouse wh.jsonl --checkpoint
suite.ckpt`` (the descriptor's keys make it a suite), then ``query
--group-by scheme,seed`` as a table and as ``--json``, and ``export`` to a
CSV.  It proves:

1. the export holds one row per expanded cell: eight;
2. its first four columns are the provenance headers ``suite``, ``study``,
   ``seed`` and ``repetition``;
3. the JSON query has four groups (2 schemes x 2 seeds, pooling the
   repetitions), whose sizes ``n`` add up to the exported row count.

``benchmarks/test_suite_cli_smoke.py`` runs this in tier-1.  Exit status 0
on success.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCENARIO = {
    "name": "suite_smoke",
    "topology": {"kind": "fully_connected", "num_nodes": 5, "capacity": 10.0},
    "traffic": {"kind": "datacenter", "level": "pod", "num_intervals": 80},
    "history_len": 4,
}
SUITE = {
    "name": "ci-smoke",
    "seeds": [1, 2],
    "repetitions": 2,
    "studies": [
        {"name": "figret", "spec": {
            "scenario": SCENARIO,
            "scheme": {"kind": "figret", "epochs": 30, "history_len": 4,
                       "robustness_weight": 0.1, "seed": 7},
            "max_intervals": 10,
        }},
        {"name": "dote", "spec": {
            "scenario": SCENARIO,
            "scheme": {"kind": "dote", "epochs": 30, "history_len": 4, "seed": 7},
            "max_intervals": 10,
        }},
    ],
}
ROWS = 8
GROUPS = 4

#: Seconds any one child may take before the smoke calls it hung.
CHILD_TIMEOUT_S = 120.0


def _study(workdir: Path, *args: str) -> str:
    """Run ``python -m repro.study ARGS`` in ``workdir``; return its stdout."""
    src = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro.study", *args],
        cwd=workdir,
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
        ),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    assert done.returncode == 0, (
        f"repro.study {' '.join(args)} exited {done.returncode}:\n{done.stderr}"
    )
    return done.stdout


def main(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "suite.json").write_text(json.dumps(SUITE))
    _study(workdir, "suite.json", "--warehouse", "wh.jsonl", "--checkpoint", "suite.ckpt")
    print(_study(workdir, "query", "wh.jsonl", "--group-by", "scheme,seed"))
    groups = json.loads(
        _study(workdir, "query", "wh.jsonl", "--group-by", "scheme,seed", "--json")
    )
    _study(workdir, "export", "wh.jsonl", "rows.csv")
    with open(workdir / "rows.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + ROWS, f"expected {ROWS} data rows, got {len(rows) - 1}"
    assert rows[0][:4] == ["suite", "study", "seed", "repetition"], rows[0]
    assert len(groups) == GROUPS, f"expected {GROUPS} groups, got {len(groups)}"
    assert sum(group["n"] for group in groups) == len(rows) - 1, groups
    print(f"suite CLI OK: {len(rows) - 1} rows exported, {len(groups)} groups")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="suite-smoke-") as workdir:
            main(Path(workdir))
