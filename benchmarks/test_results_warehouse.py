"""Results-warehouse throughput: durable appends, loads, and aggregation.

Every warehouse append is a flushed + fsynced line followed by a directory
fsync -- the durability contract that makes a suite survive SIGKILL at any
instant -- so append throughput is bounded by the storage stack, not by
JSON encoding.  This bench pins that the bookkeeping around the fsyncs
stays cheap:

* ``append_records_per_second`` -- sustained :meth:`ResultWarehouse.extend`
  rate for realistic records (7 metrics + a 32-sample stored series), the
  rate a finishing study writes cells at.  The in-bench floor is a very
  conservative 25/s (tmpfs/SSD boxes measure thousands); a real study cell
  takes >> 40 ms to *compute*, so appends stay invisible until the rate
  falls below it.
* ``load_records_per_second`` / ``query_seconds`` /
  ``aggregate_seconds`` / ``export_csv_seconds`` -- the analysis side over
  the same store: one full parse, a tag-filtered query, the grouped
  mean +/- CI + pooled-percentile aggregation, and the flat CSV export.

The numbers land in ``BENCH_results_warehouse.json``.
"""

from __future__ import annotations

import time

import numpy as np

import bench_common as common
from repro.study import ResultWarehouse, StudyResult

#: Records per timed pass -- enough to amortise interpreter start noise
#: while keeping the fsync-bound pass under a few seconds on slow disks.
NUM_RECORDS = 400
#: Stored normalized-MLU samples per record (a fig05-sized eval slice).
SERIES_SAMPLES = 32
#: In-bench floor on sustained durable appends (records/second).
APPEND_FLOOR = 25.0


def _synthetic_records(count: int) -> list[StudyResult]:
    rng = np.random.default_rng(common.BENCH_SEED)
    records = []
    for index in range(count):
        series = 1.0 + rng.random(SERIES_SAMPLES)
        records.append(
            StudyResult(
                scenario=f"scenario_{index % 8}",
                scheme=("FIGRET", "DOTE", "TEAL")[index % 3],
                experiment="replay",
                spec={
                    "scenario": f"scenario_{index % 8}",
                    "max_intervals": SERIES_SAMPLES,
                    "tags": {
                        "suite": "bench",
                        "study": f"study_{index % 4}",
                        "seed": index % 5,
                        "repetition": index % 2,
                    },
                },
                metrics={
                    "mean": float(series.mean()),
                    "p90": float(np.percentile(series, 90)),
                    "p99": float(np.percentile(series, 99)),
                    "worst": float(series.max()),
                    "severe_congestion_fraction": float((series > 2.0).mean()),
                    "average_decline": 0.0,
                    "p90_decline": 0.0,
                },
                series=series,
            )
        )
    return records


def test_warehouse_throughput(tmp_path):
    records = _synthetic_records(NUM_RECORDS)
    store = ResultWarehouse(tmp_path / "bench_warehouse.jsonl")

    start = time.perf_counter()
    store.extend(records)
    append_seconds = time.perf_counter() - start
    append_rate = NUM_RECORDS / append_seconds

    start = time.perf_counter()
    loaded = store.results()
    load_seconds = time.perf_counter() - start
    assert len(loaded) == NUM_RECORDS
    load_rate = NUM_RECORDS / load_seconds

    start = time.perf_counter()
    sliced = store.query(scheme="FIGRET", seed=[0, 1])
    query_seconds = time.perf_counter() - start
    assert len(sliced) > 0

    start = time.perf_counter()
    rows = store.aggregate(group_by=("scenario", "scheme"))
    aggregate_seconds = time.perf_counter() - start
    assert len(rows) == 24  # 8 scenarios x 3 schemes

    start = time.perf_counter()
    exported = store.export_csv(tmp_path / "bench_export.csv")
    export_seconds = time.perf_counter() - start
    assert exported == NUM_RECORDS

    print(
        f"warehouse: {append_rate:.0f} durable appends/s, "
        f"{load_rate:.0f} loads/s, aggregate {aggregate_seconds * 1e3:.1f} ms, "
        f"export {export_seconds * 1e3:.1f} ms ({NUM_RECORDS} records)"
    )
    assert append_rate >= APPEND_FLOOR, (
        f"durable append rate {append_rate:.1f}/s fell below the "
        f"{APPEND_FLOOR:.0f}/s floor: warehouse appends would now be visible "
        "next to real cell runtimes"
    )

    common.write_bench_record(
        "results_warehouse",
        num_records=NUM_RECORDS,
        series_samples=SERIES_SAMPLES,
        append_records_per_second=append_rate,
        load_records_per_second=load_rate,
        query_seconds=query_seconds,
        aggregate_seconds=aggregate_seconds,
        export_csv_seconds=export_seconds,
    )
