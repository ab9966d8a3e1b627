"""Shared machinery for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Training a
deep-learning scheme is by far the most expensive step, so trained schemes and
loaded scenarios are cached in module-level dictionaries and reused across
benchmark modules within one pytest session.

All benchmarks use scaled-down scenario variants (``*_small``) and shortened
traces so the whole harness completes on a CPU-only machine; the scenario
builders in ``repro.datasets.registry`` hold the scaling factors.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
from pathlib import Path

import numpy as np

from repro import datasets
from repro.core import TrainingConfig
from repro.evaluation.engine import EvaluationEngine
from repro.evaluation.metrics import MLUStatistics, normalized_mlu_statistics
from repro.pool import resolve_workers
from repro.solvers.lp import shared_cache
from repro.study import ExperimentSpec, ResultSet, Study

#: Seed used by every benchmark scenario (results are deterministic).
BENCH_SEED = 7

#: Trace lengths per scenario (shortened versus the paper's full traces).
SCENARIO_INTERVALS = {
    "geant_small": 260,
    "pfabric_small": 200,
    "meta_pod_db_small": 240,
    "meta_pod_web_small": 240,
    "meta_tor_db_small": 200,
    "meta_tor_web_small": 200,
    "uscarrier_small": 90,
    "cogentco_small": 90,
}

#: Cap on the number of evaluated test intervals per scheme.
MAX_EVAL_INTERVALS = 40

#: Session-wide dedup caches shared by every study the harness runs: one
#: scenario build and one scheme training per distinct spec, across all
#: benchmark modules (ported to the study API or not).
SCENARIO_CACHE: dict = {}
SCHEME_CACHE: dict = {}

_engine: EvaluationEngine | None = None


def bench_engine() -> EvaluationEngine:
    """The engine shared by every benchmark in the session.

    Built on the process-wide LP cache (so the trainers' normaliser solves
    are reused here and vice versa), whose misses get an
    ``os.cpu_count()``-derived process-pool width -- the larger topologies
    (Cogentco/UsCarrier) are where the fan-out pays off.
    """
    global _engine
    if _engine is None:
        cache = shared_cache()
        cache.workers = resolve_workers("auto")
        _engine = EvaluationEngine(cache=cache)
    return _engine


def _session_study(spec=None) -> Study:
    """A study wired to the session caches (and, via run_study, the engine)."""
    return Study(spec, scheme_cache=SCHEME_CACHE, scenario_cache=SCENARIO_CACHE)


def scenario_spec(name: str) -> dict:
    """The declarative reference for a benchmark scenario (seed + length)."""
    return {
        "name": name,
        "seed": BENCH_SEED,
        "num_intervals": SCENARIO_INTERVALS.get(name),
    }


def get_scenario(name: str) -> datasets.Scenario:
    """Load (and cache) a benchmark scenario."""
    return _session_study().scenario(scenario_spec(name))


def run_study(
    spec,
    engine: EvaluationEngine | None = None,
    checkpoint=None,
) -> ResultSet:
    """Run a study spec on the session engine with the session dedup caches.

    ``checkpoint`` passes straight through to :meth:`repro.study.Study.run`
    (crash-safe incremental results).
    """
    return _session_study(spec).run(engine=engine or bench_engine(), checkpoint=checkpoint)


def training_config(scenario: datasets.Scenario, robustness_weight: float, epochs: int) -> TrainingConfig:
    """Benchmark-scale training configuration for a scenario.

    The GEANT-like scenario has many SD pairs but few training windows; the
    default learning rate occasionally drives the Sigmoid output layer into a
    plateau there, so it trains with a smaller learning rate.
    """
    is_geant = scenario.name.startswith("geant")
    return TrainingConfig(
        epochs=epochs,
        history_len=scenario.history_len,
        robustness_weight=robustness_weight,
        learning_rate=5e-4 if is_geant else 2e-3,
        lr_decay=0.99 if is_geant else 0.98,
        seed=BENCH_SEED,
    )


def scheme_spec(
    kind: str, scenario_name: str, robustness_weight: float = 0.15, epochs: int = 40
) -> dict:
    """The declarative spec of a trained neural scheme for a scenario.

    Spells :func:`training_config`'s per-scenario choices out as plain data,
    so study cells and :func:`trained_scheme` share one canonical key (and
    therefore one training) per scheme.
    """
    scenario = get_scenario(scenario_name)
    config = training_config(scenario, robustness_weight, epochs)
    return {
        "kind": kind,
        "epochs": config.epochs,
        "history_len": config.history_len,
        "robustness_weight": config.robustness_weight,
        "learning_rate": config.learning_rate,
        "lr_decay": config.lr_decay,
        "seed": config.seed,
    }


def trained_scheme(kind: str, scenario_name: str, robustness_weight: float = 0.15, epochs: int = 40):
    """Return a trained FIGRET / DOTE / TEAL-like scheme, training it once per session.

    Resolved through the study layer's scheme cache, so benchmarks using the
    declarative API and ones calling this helper share trainings.

    Args:
        kind: ``"figret"``, ``"dote"`` or ``"teal"``.
        scenario_name: Registered scenario name.
        robustness_weight: FIGRET's L2 weight (ignored by DOTE / TEAL).
        epochs: Training epochs.
    """
    cell = ExperimentSpec(
        scenario=scenario_spec(scenario_name),
        scheme=scheme_spec(kind, scenario_name, robustness_weight, epochs),
    )
    return _session_study().trained_scheme(cell, engine=bench_engine())


def test_slice(scenario: datasets.Scenario, max_intervals: int = MAX_EVAL_INTERVALS):
    """The evaluation slice of a scenario's test split (bounded length)."""
    _, test = scenario.split()
    limit = scenario.history_len + max_intervals
    return test[: min(len(test), limit)]


def optimal_mlus(scenario: datasets.Scenario, max_intervals: int = MAX_EVAL_INTERVALS) -> np.ndarray:
    """Omniscient MLUs over the evaluation slice of a scenario.

    Memoisation now lives in the evaluation engine's shared
    :class:`~repro.solvers.lp.OptimalMLUCache` (keyed per demand matrix), so
    repeated calls -- and every other experiment touching the same demands --
    are cache hits.
    """
    sliced = test_slice(scenario, max_intervals)
    return bench_engine().optimal_mlus(scenario.paths, sliced.flat_demands())


def evaluate_on_scenario(scheme, scenario: datasets.Scenario, max_intervals: int = MAX_EVAL_INTERVALS):
    """Evaluate an already-precomputed scheme on a scenario's test slice."""
    sliced = test_slice(scenario, max_intervals)
    return bench_engine().evaluate_scheme(
        scheme,
        sliced,
        history_len=scenario.history_len,
        optimal_mlus=optimal_mlus(scenario, max_intervals),
    )


def stats_row(name: str, stats: MLUStatistics) -> list[str]:
    """One formatted row of a Figure-5 style comparison table."""
    return [
        name,
        f"{stats.mean:.3f}",
        f"{stats.median:.3f}",
        f"{stats.p90:.3f}",
        f"{stats.p99:.3f}",
        f"{stats.worst:.3f}",
        f"{stats.severe_congestion_fraction * 100:.1f}%",
    ]


def summarize(series: np.ndarray) -> MLUStatistics:
    """Shortcut used by benches that build their own normalised series."""
    return normalized_mlu_statistics(series)


# --------------------------------------------------------------------- #
# Machine-readable benchmark records (the BENCH_*.json artifacts)
# --------------------------------------------------------------------- #

#: On-disk format marker / version of the benchmark records.
BENCH_RECORD_FORMAT = "repro-bench-record"
BENCH_RECORD_VERSION = 1


def bench_output_dir() -> Path:
    """Directory the ``BENCH_*.json`` records are written to.

    ``REPRO_BENCH_DIR`` when set (CI points it at the workspace root, where
    its artifact upload looks); otherwise the untracked
    ``benchmarks/.records/``, so a plain test run leaves the tree clean.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override).expanduser()
    return Path(__file__).resolve().parent / ".records"


def write_bench_record(
    name: str,
    lp_workers: int | str | None = None,
    update: bool = False,
    **metrics,
) -> Path:
    """Write one machine-readable ``BENCH_<name>.json`` benchmark record.

    Every record carries the context needed to compare runs over time --
    LP worker width, python version -- plus the bench's own
    metrics (solves/sec, replay wall-times, speedups, ...).  The CI
    benchmark-regression job uploads these files as artifacts, so the perf
    trajectory of the replay engine is tracked per commit instead of living
    only in prose.

    Args:
        name: Bench identifier (becomes the ``BENCH_<name>.json`` filename).
        lp_workers: LP process-pool width the bench ran with (resolved, so
            ``"auto"`` records the actual width).  Benches that *sweep*
            widths themselves pass ``None`` -- recorded as ``null`` rather
            than a misleading single width -- and list the swept widths in
            their own metrics.
        update: Merge the new metrics into an existing record of the same
            bench instead of replacing it -- how several tests of one module
            extend a single ``BENCH_*.json`` (an unreadable or foreign
            existing file is replaced).
        **metrics: JSON-serialisable measurement values.

    Returns:
        The path written.
    """
    path = bench_output_dir() / f"BENCH_{name}.json"
    if update and path.exists():
        try:
            with open(path, encoding="utf-8") as handle:
                existing = json.load(handle)
            if (
                isinstance(existing, dict)
                and existing.get("format") == BENCH_RECORD_FORMAT
                and existing.get("bench") == name
                and isinstance(existing.get("metrics"), dict)
            ):
                metrics = {**existing["metrics"], **metrics}
        except (OSError, ValueError):
            pass
    record = {
        "format": BENCH_RECORD_FORMAT,
        "version": BENCH_RECORD_VERSION,
        "bench": name,
        "lp_workers": resolve_workers(lp_workers),
        "python": platform.python_version(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "metrics": metrics,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
