"""Study-service overhead: job throughput, stream latency, warm-state reuse.

The daemon's value proposition is that the *service layer* is invisible:
submitting over the Unix socket, queueing, streaming records back, and the
terminal accounting must all cost microseconds-to-milliseconds next to the
cells' own LP/training work, and the warm process-wide caches must make an
overlapping grid from a second client literally free.  This bench pins
three numbers:

* ``submit_to_first_result_seconds`` -- wall time from a warm ``submit``
  call to its first streamed ``record`` message: connect + expand + queue +
  one cache-served cell + one socket round-trip.
* ``jobs_per_second`` -- sustained rate of whole warm jobs (submit, stream,
  terminal summary) through the FIFO queue, one blocking client.
* ``cross_client_cache_hit_rate`` -- ``1 - warm_solves / cold_solves`` for
  an identical grid submitted by a *different* client connection: the
  tentpole's zero-repeat-work guarantee as a ratio (must be 1.0: the warm
  job asserts ``lp_solves == 0``).

The two wall-clock numbers are recorded in ``BENCH_study_service.json``,
not gated here: perfbench's ``service_warm`` is where they are judged.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

import bench_common as common
from repro.study import StudyClient, StudyServer

#: Warm identical jobs timed for the throughput number.
NUM_WARM_JOBS = 10

#: The benched grid: one scenario, one trained scheme, three perturbation
#: cells -- small enough that service overhead would dominate if it were
#: bad, real enough that the cold job does genuine LP work to reuse.
SERVICE_SPEC = {
    "scenario": {
        "name": "bench-service",
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {
            "kind": "datacenter",
            "level": "pod",
            "seed": common.BENCH_SEED,
            "num_intervals": 30,
        },
        "history_len": 3,
    },
    "scheme": {"kind": "figret", "epochs": 2, "history_len": 3, "seed": 0},
    "perturbation": {
        "sweep": [
            {"kind": "none"},
            {"kind": "fluctuation", "alpha": 1.0},
            {"kind": "fluctuation", "alpha": 2.0},
        ]
    },
    "max_intervals": 10,
}


def test_study_service_overhead():
    # Sockets live under mkdtemp, not pytest's tmp_path: AF_UNIX paths cap
    # out around 107 bytes and nested pytest temp dirs can exceed that.
    root = Path(tempfile.mkdtemp(prefix="repro-bench-svc-"))
    server = StudyServer(root / "bench.sock")
    ready = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"ready": ready}, daemon=True
    )
    thread.start()
    assert ready.wait(10), "daemon never became ready"
    try:
        # Cold job: pays the LP solves and the training once.
        cold = StudyClient(server.socket_path).submit(SERVICE_SPEC)
        assert cold.status == "done" and len(cold.results) == 3
        cold_solves = cold.summary["lp_solves"]
        assert cold_solves > 0 and cold.summary["trainings"] == 1

        # Warm job from a NEW client connection: the cross-client hit rate.
        warm = StudyClient(server.socket_path).submit(SERVICE_SPEC)
        assert warm.status == "done"
        hit_rate = 1.0 - warm.summary["lp_solves"] / cold_solves
        assert warm.summary["lp_solves"] == 0 and warm.summary["trainings"] == 0

        # Submit-to-first-result latency on a warm job.
        first_record_at: list[float] = []

        def mark_first_record(message: dict) -> None:
            if message.get("type") == "record" and not first_record_at:
                first_record_at.append(time.perf_counter())

        start = time.perf_counter()
        StudyClient(server.socket_path).submit(
            SERVICE_SPEC, on_message=mark_first_record
        )
        submit_to_first = first_record_at[0] - start

        # Sustained warm-job throughput through the FIFO queue.
        client = StudyClient(server.socket_path)
        start = time.perf_counter()
        for _ in range(NUM_WARM_JOBS):
            outcome = client.submit(SERVICE_SPEC)
            assert outcome.summary["lp_solves"] == 0
        jobs_per_second = NUM_WARM_JOBS / (time.perf_counter() - start)
    finally:
        server.stop()
        thread.join(timeout=10)

    print(
        f"study service: {jobs_per_second:.1f} warm jobs/s, "
        f"{submit_to_first * 1e3:.1f} ms submit-to-first-result, "
        f"cross-client cache hit rate {hit_rate:.3f} "
        f"({cold_solves} cold solves, {warm.summary['lp_solves']} warm)"
    )

    common.write_bench_record(
        "study_service",
        grid_cells=len(SERVICE_SPEC["perturbation"]["sweep"]),
        num_warm_jobs=NUM_WARM_JOBS,
        cold_lp_solves=cold_solves,
        jobs_per_second=jobs_per_second,
        submit_to_first_result_seconds=submit_to_first,
        cross_client_cache_hit_rate=hit_rate,
    )
