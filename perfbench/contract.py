"""The benchmark's declared surface: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python perfbench/run.py --update-benchmark-json``) and the contract test
asserts the two agree, so this is the one place a name or a bound changes.
"""

from __future__ import annotations

from perfbench.trace import SPAN_TABLE, SPANS_WITH_CHILDREN

__all__ = [
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "benchmark_json",
]

#: Seconds one run spends in its timed region (``--seconds`` default).
RUN_SECONDS = 12

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Workload name -> why it exists (one line, <= 200 characters).
WORKLOADS = {
    "wan_cold": (
        "Cold WAN study (geant_small, FIGRET + two LP schemes, fresh engine every repetition): "
        "LP solves do ~75% of the work, both mlu_only batches and full bounded solves; training ~20%."
    ),
    "dc_train": (
        "Cold ToR study (meta_tor_db_small, bursty trace, a robustness-weight axis of four trainings): "
        "training does ~65% of the work and the LP ~25%, the reverse of wan_cold."
    ),
    "warm_grid": (
        "36-cell grid re-run on a warm engine, batched beside chunked replay, then read back from its stores: "
        "forward passes, record building and fsynced appends do the work; zero LP solves."
    ),
    "service_warm": (
        "Warm jobs through a real study daemon over its Unix socket, one blocking client: socket, queue, "
        "JSON framing and per-job planning do the work; bypasses the LP and the durable stores."
    ),
    "online_decide": (
        "One TE decision at a time (the paper's Table 2): FIGRET configure() against des_te's LP per interval; "
        "per-call packaging dominates FIGRET, which every batched workload bypasses."
    ),
}

#: ``(name, unit, better, bound)``.  Every workload reports every metric; what
#: the primary and the secondary operation *are* is per workload (README,
#: "End-to-end metrics").  Times are speed-normalised: the box the benchmark
#: was sized on runs at two speeds, so every sample is scaled by a speed
#: probe taken right before and after it (README, "Noise").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("primary_ms_p50", "ms", "lower", 0.25),
    ("secondary_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_COUNTERS = (
    ("solvers.lp_solves", "count", "lower"),
    ("solvers.cache.hits", "count", "higher"),
    ("solvers.cache.misses", "count", "lower"),
    ("solvers.cache.hit_ratio", "ratio", "higher"),
    ("study.cells", "count", "higher"),
    ("study.checkpoint.bytes", "bytes", "lower"),
    ("study.warehouse.bytes", "bytes", "lower"),
    ("study.server.lp_solves", "count", "lower"),
    ("study.server.trainings", "count", "lower"),
    ("study.server.peak_rss_mb", "MB", "lower"),
    ("study.client.job_ms_p95", "ms", "lower"),
    ("study.client.first_record_ms_p95", "ms", "lower"),
    ("study.inprocess_job_ms_p50", "ms", "lower"),
    ("study.service_overhead_ms", "ms", "lower"),
    ("scheme.figret_decide_ms_p99", "ms", "lower"),
    ("scheme.lp_decide_ms_p90", "ms", "lower"),
    ("scheme.te_config_share", "ratio", "lower"),
    ("bench.primary_raw_ms_p50", "ms", "lower"),
    ("bench.secondary_raw_ms_p50", "ms", "lower"),
    ("bench.primary_per_s", "1/s", "higher"),
    ("host.import_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.calib_ms_before", "ms", "lower"),
    ("host.calib_ms_after", "ms", "lower"),
    ("host.probe_ms_p50", "ms", "lower"),
    ("host.noisy", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    metrics = []
    for span, _ in SPAN_TABLE:
        metrics.append((f"{span}.count", "count", "lower"))
        metrics.append((f"{span}.self_s", "s", "lower"))
        if span in SPANS_WITH_CHILDREN:
            metrics.append((f"{span}.total_s", "s", "lower"))
    return tuple(metrics) + _COUNTERS


#: ``(name, unit, better)``; span metrics are per repetition of the timed
#: operation they ran in (see README, "Per-layer metrics").
PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
