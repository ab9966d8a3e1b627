"""Enforce the committed performance floors against BENCH_*.json records.

One table, one checker: ``benchmarks/floors.json`` maps each benchmark
record file to per-metric ``min`` floors / ``max`` ceilings with a one-line
rationale, and this script verifies every entry -- replacing the per-floor
inline heredocs that used to live in ``.github/workflows/ci.yml`` (two
copies of the same load-assert-print dance, each with its own hardcoded
threshold).

Run it locally after the benchmark harness::

    PYTHONPATH=src python -m pytest -q benchmarks/
    python benchmarks/check_floors.py

Both write to / read from :func:`bench_output_dir` -- ``REPRO_BENCH_DIR``
when set, the untracked ``benchmarks/.records/`` otherwise -- or point the
checker somewhere else::

    python benchmarks/check_floors.py --records /path/to/records

A record file named in the table but absent on disk is skipped with a
notice (CI legs run different benchmark subsets); a *metric* missing from a
record that exists is a hard failure -- that means the bench stopped
measuring something the table still guards.  Exit status is the number of
violated floors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

FLOORS_TABLE = Path(__file__).resolve().parent / "floors.json"


def bench_output_dir() -> Path:
    """Directory the ``BENCH_*.json`` records are written to and checked in.

    ``REPRO_BENCH_DIR`` when set (CI points it at the workspace root, where
    its artifact upload looks); otherwise the untracked
    ``benchmarks/.records/``, so a plain test run leaves the tree clean.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override).expanduser()
    return Path(__file__).resolve().parent / ".records"


def check_record(record_path: Path, floors: dict) -> list[str]:
    """Check one record against its floor table; returns failure lines."""
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    metrics = record.get("metrics", {})
    failures = []
    for metric, rule in floors.items():
        if metric not in metrics:
            failures.append(
                f"{record_path.name}: metric {metric!r} missing from the "
                "record -- the benchmark no longer measures a floored metric"
            )
            continue
        value = metrics[metric]
        if "min" in rule and value < rule["min"]:
            failures.append(
                f"{record_path.name}: {metric} = {value:.4g} fell below the "
                f"{rule['min']:.4g} floor ({rule['reason']})"
            )
        elif "max" in rule and value > rule["max"]:
            failures.append(
                f"{record_path.name}: {metric} = {value:.4g} rose above the "
                f"{rule['max']:.4g} ceiling ({rule['reason']})"
            )
        else:
            bound = (
                f">= {rule['min']:.4g}" if "min" in rule else f"<= {rule['max']:.4g}"
            )
            print(f"OK  {record_path.name}: {metric} = {value:.4g} ({bound})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check BENCH_*.json records against benchmarks/floors.json."
    )
    parser.add_argument(
        "--records",
        default=bench_output_dir(),
        metavar="DIR",
        help=(
            "directory holding the BENCH_*.json records (default: where the "
            "harness writes them -- $REPRO_BENCH_DIR, else benchmarks/.records)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a record file named in the table is missing",
    )
    args = parser.parse_args(argv)

    with open(FLOORS_TABLE, encoding="utf-8") as handle:
        table = json.load(handle)
    records_dir = Path(args.records)

    failures: list[str] = []
    checked = 0
    for record_name, floors in table.items():
        if record_name.startswith("_"):
            continue  # table-level commentary, not a record
        record_path = records_dir / record_name
        if not record_path.exists():
            message = f"{record_name}: no record at {record_path} -- skipped"
            if args.strict:
                failures.append(message.replace("skipped", "required by --strict"))
            else:
                print(f"--  {message}")
            continue
        checked += 1
        failures.extend(check_record(record_path, floors))

    if failures:
        print(f"\n{len(failures)} floor violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
    else:
        print(f"\nall floors hold across {checked} record(s)")
    return len(failures)


if __name__ == "__main__":
    sys.exit(main())
