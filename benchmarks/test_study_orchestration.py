"""Study-orchestration overhead, LP-solve dedup, and cell-pool scaling.

Three guarantees of the declarative layer are pinned here:

* **Overhead** -- what running a scenarios x schemes x perturbations grid
  through :class:`repro.study.Study` costs over issuing the equivalent
  engine calls by hand (the orchestration is dict bookkeeping; the replays
  dominate).  Measured and *recorded* here, not asserted: a ~50 ms
  comparison would trip tier-1 on jitter, and perfbench's ``warm_grid`` is
  where the warm grid's wall clock is judged.
* **LP dedup** -- across grid cells the omniscient normalisers are solved
  once per distinct demand matrix: adding the whole scheme axis to a grid
  adds *zero* LP solves, and re-running a study on a warm engine solves
  nothing (asserted with :func:`~repro.solvers.lp.count_lp_solves`).
* **Cell pool** -- ``Study.run(cell_workers=N)`` produces bit-identical
  results to sequential execution while fanning distinct scheme trainings
  out over a process pool, and the workers' LP-cache entries and trained
  schemes merge back into the parent (a warm re-run repeats nothing).  The
  sequential-vs-pooled wall times are *recorded* (medians of interleaved
  pairs on a warm pool, plus every pair), not asserted: like the LP pool,
  whether a 2-wide pool wins depends on the core count (see
  ``BENCH_lp_worker_scaling.json``).

All tests extend one ``BENCH_study_orchestration.json`` record (later
writers merge via ``write_bench_record(update=True)``).
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import pytest

import bench_common as common
from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import OptimalMLUCache, count_lp_solves
from repro.study import ResultWarehouse, Study, Suite, expand_suite, sweep
from repro.traffic.perturb import gaussian_fluctuation

#: The grid: three Figure-5 scenarios x three neural schemes x two
#: perturbation profiles, at the fig05 evaluation cap.  Neural schemes only
#: -- their replay is a pure forward pass, so every LP solve in these cells
#: is a normaliser and the dedup assertions are exact.  Tiny training
#: budget: orchestration overhead does not depend on model quality, and the
#: geant schemes are shared with test_engine_speedup in the CI bench job.
SCENARIOS = ["geant_small", "pfabric_small", "meta_pod_db_small"]
EPOCHS = 5
FLUCTUATION = {"kind": "fluctuation", "alpha": 0.5, "seed": common.BENCH_SEED}
MAX_INTERVALS = common.MAX_EVAL_INTERVALS


def _scheme_specs(scenario_name):
    return [
        common.scheme_spec("figret", scenario_name, 0.1, EPOCHS),
        common.scheme_spec("dote", scenario_name, 0.0, EPOCHS),
        common.scheme_spec("teal", scenario_name, 0.0, EPOCHS),
    ]


def _grid_spec(scenario_name, schemes):
    return {
        "scenario": common.scenario_spec(scenario_name),
        "scheme": sweep(*schemes) if len(schemes) > 1 else schemes[0],
        "perturbation": sweep({"kind": "none"}, dict(FLUCTUATION)),
        "max_intervals": MAX_INTERVALS,
    }


def _full_grid():
    return [_grid_spec(name, _scheme_specs(name)) for name in SCENARIOS]


def _pretrain_all():
    """Resolve every grid scheme up front (training LPs stay out of the timings)."""
    schemes = {}
    for name in SCENARIOS:
        for kind, spec in zip(("figret", "dote", "teal"), _scheme_specs(name)):
            schemes[(name, kind)] = common.trained_scheme(
                kind, name, spec["robustness_weight"], EPOCHS
            )
    return schemes

def _direct_equivalent(engine, schemes):
    """The grid issued as hand-written engine calls (what the study replaces).

    Produces the same deliverables a study cell records -- per-cell summary
    statistics and fluctuation declines -- so the timing difference is pure
    orchestration (spec expansion, dedup keys, provenance records).
    """
    outcome = {}
    for name in SCENARIOS:
        scenario = common.get_scenario(name)
        train, _ = scenario.split()
        test = common.test_slice(scenario, MAX_INTERVALS)
        std = train.pair_std()
        for kind in ("figret", "dote", "teal"):
            scheme = schemes[(name, kind)]
            base = engine.evaluate_scheme(scheme, test, scenario.history_len)
            base_stats = base.statistics
            perturbed = gaussian_fluctuation(
                test, FLUCTUATION["alpha"], std, seed=FLUCTUATION["seed"]
            )
            fluct = engine.evaluate_scheme(scheme, perturbed, scenario.history_len)
            fluct_stats = fluct.statistics
            outcome[(name, kind)] = {
                "replay": base_stats,
                "fluctuation": fluct_stats,
                "average_decline": fluct_stats.mean / base_stats.mean - 1.0,
                "p90_decline": fluct_stats.p90 / base_stats.p90 - 1.0,
            }
    return outcome


def _compare(direct_fn, study_fn, rounds=7):
    """Best-of-N wall times, rounds interleaved so session-state drift (GC
    pressure from earlier benchmark modules, allocator state) hits both
    paths alike; collections run outside the timed regions."""
    best_direct = best_study = float("inf")
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        direct_fn()
        best_direct = min(best_direct, time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        study_fn()
        best_study = min(best_study, time.perf_counter() - start)
    return best_direct, best_study


@pytest.mark.paper("study orchestration")
def test_study_orchestration_overhead_and_dedup(benchmark):
    schemes = _pretrain_all()
    engine = common.bench_engine()

    def run_study():
        return [
            Study(spec, scheme_cache=common.SCHEME_CACHE, scenario_cache=common.SCENARIO_CACHE).run(
                engine=engine
            )
            for spec in _full_grid()
        ]

    def run_direct():
        return _direct_equivalent(engine, schemes)

    # Warm both paths (LP cache, scenario/scheme caches), then time best-of-N.
    run_direct()
    run_study()
    direct_s, study_s = _compare(run_direct, run_study)
    overhead = study_s / direct_s - 1.0

    # --- LP dedup: scheme axis adds zero solves; warm re-runs solve nothing.
    cold_engine = EvaluationEngine(cache=OptimalMLUCache())
    single = [_grid_spec(name, [_scheme_specs(name)[0]]) for name in SCENARIOS]
    with count_lp_solves() as cold_tally:
        for spec in single:
            Study(spec, scheme_cache=common.SCHEME_CACHE, scenario_cache=common.SCENARIO_CACHE).run(
                engine=cold_engine
            )
    cold_solves = cold_tally.count
    with count_lp_solves() as axis_tally:
        for spec in _full_grid():
            Study(spec, scheme_cache=common.SCHEME_CACHE, scenario_cache=common.SCENARIO_CACHE).run(
                engine=cold_engine
            )
    with count_lp_solves() as rerun_tally:
        for spec in _full_grid():
            Study(spec, scheme_cache=common.SCHEME_CACHE, scenario_cache=common.SCENARIO_CACHE).run(
                engine=cold_engine
            )

    results = benchmark.pedantic(run_study, rounds=1, iterations=1)
    cells = sum(len(result_set) for result_set in results)
    print()
    print(
        f"Study orchestration: {cells} cells, direct {direct_s * 1e3:.1f} ms, "
        f"study {study_s * 1e3:.1f} ms, overhead {overhead * 100:+.2f}%"
    )
    print(
        f"LP dedup: {cold_solves} cold solves for the scenario x perturbation axes, "
        f"+{axis_tally.count} for the full scheme axis, +{rerun_tally.count} on re-run"
    )
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["cold_solves"] = cold_solves

    assert cold_solves > 0  # the cold engine really did the normaliser pass
    assert axis_tally.count == 0  # scheme axis: zero repeat LP solves
    assert rerun_tally.count == 0  # warm re-run: zero repeat LP solves

    common.write_bench_record(
        "study_orchestration",
        lp_workers=engine.cache.workers,
        update=True,
        grid_cells=cells,
        direct_seconds=direct_s,
        study_seconds=study_s,
        orchestration_overhead=overhead,
        cold_lp_solves=cold_solves,
        scheme_axis_extra_solves=axis_tally.count,
        rerun_extra_solves=rerun_tally.count,
    )


# --------------------------------------------------------------------- #
# Cell-level process-pool execution
# --------------------------------------------------------------------- #

#: The pooled grid has the shape of perfbench's ``dc_train`` workload -- one
#: ToR scenario x four neural scheme specs x {none, fluctuation} -- because
#: that is what the pool is for: its sequential cost (well over a second
#: here) is four trainings, which fan out one per group.  A grid of a few
#: hundred milliseconds only measures pool start-up and pickling.  The BLAS
#: thread setting is recorded beside the timings because the verdict flips on
#: it: on the 2-core dev box two workers x two OpenBLAS threads oversubscribe
#: the cores (0.2-0.4x), one BLAS thread per process -- what perfbench pins
#: -- does not (1.2x), and sequential time is the same either way.
CELL_POOL_WIDTH = 2
CELL_POOL_PAIRS = 3


def _cell_pool_spec(epochs=7):
    def neural(kind, **params):
        return {"kind": kind, "epochs": epochs, "seed": common.BENCH_SEED, **params}

    return {
        "scenario": {
            "name": "meta_tor_db_small",
            "seed": common.BENCH_SEED,
            "num_intervals": 72,
        },
        "scheme": sweep(
            neural("figret", robustness_weight=0.05, label="FIGRET rw=0.05"),
            neural("figret", robustness_weight=0.15, label="FIGRET rw=0.15"),
            neural("figret", robustness_weight=0.5, label="FIGRET rw=0.5"),
            neural("dote"),
        ),
        "perturbation": sweep({"kind": "none"}, dict(FLUCTUATION)),
        "max_intervals": 6,
    }


@pytest.mark.paper("study cell pool")
def test_study_cell_worker_scaling(benchmark):
    from repro.study import study as study_module

    spec = _cell_pool_spec()

    def run_width(spec, cell_workers):
        # Fresh engine + scheme cache per run: the trainings and the cold
        # normaliser pass are the work the pool parallelises, so they must
        # happen inside the timed region.
        engine = EvaluationEngine(cache=OptimalMLUCache())
        scheme_cache: dict = {}
        start = time.perf_counter()
        results = Study(spec, scheme_cache=scheme_cache).run(
            engine=engine, cell_workers=cell_workers
        )
        elapsed = time.perf_counter() - start
        return elapsed, results, engine, scheme_cache

    # Start the pool's workers (process creation, imports) on a throw-away
    # job: a long-lived pool pays that once, not once per grid.
    run_width(_cell_pool_spec(epochs=1), CELL_POOL_WIDTH)

    pairs = []
    baseline = None
    for _ in range(CELL_POOL_PAIRS):
        sequential_s, results, _, _ = run_width(spec, None)
        baseline = baseline or results.to_json()
        assert results.to_json() == baseline

        pooled_s, results, engine, scheme_cache = run_width(spec, CELL_POOL_WIDTH)
        assert results.to_json() == baseline  # bit-identical to sequential
        # Merge-back contract: the parent engine can re-run the whole grid
        # without a single new LP solve, and every distinct scheme spec came
        # back trained.
        assert len(scheme_cache) == 4  # 1 scenario x 4 scheme specs
        with count_lp_solves() as tally:
            rerun = Study(spec, scheme_cache=scheme_cache).run(engine=engine)
        assert tally.count == 0
        assert rerun.to_json() == results.to_json()
        pairs.append((sequential_s, pooled_s))

    # If the pool was unusable (sandboxed spawn, broken pool) the pooled runs
    # silently ran sequentially -- the correctness assertions above still
    # hold, but recording sequential-vs-sequential wall times as pool
    # scaling would fabricate the tracked artifact.  The warn-once module
    # flag is the degradation signal.
    degraded = study_module._CELL_POOL_FALLBACK_WARNED

    cells = len(results)
    sequential_s = statistics.median(pair[0] for pair in pairs)
    pooled_s = statistics.median(pair[1] for pair in pairs)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["pairs"] = pairs
    benchmark.extra_info["pool_degraded"] = degraded
    print()
    for sequential, pooled in pairs:
        print(
            f"cell-pool scaling: sequential {sequential * 1e3:8.1f} ms, "
            f"cell_workers={CELL_POOL_WIDTH} {pooled * 1e3:8.1f} ms ({cells} cells)"
        )
    if degraded:
        print("cell pool unavailable here: pooled runs ran sequentially, timings not recorded")
        # Explicit nulls: update=True merges into the existing record, so
        # omitting the keys would leave a previous box's timings sitting
        # next to degraded=true.
        scaling_metrics = dict.fromkeys(
            (
                "cell_pool_sequential_seconds",
                "cell_pool_pooled_seconds",
                "cell_pool_speedup",
                "cell_pool_pair_seconds",
            )
        )
    else:
        print(
            f"cell-pool scaling: medians {sequential_s * 1e3:.1f} vs {pooled_s * 1e3:.1f} ms "
            f"({sequential_s / pooled_s:.2f}x)"
        )
        scaling_metrics = {
            "cell_pool_sequential_seconds": sequential_s,
            "cell_pool_pooled_seconds": pooled_s,
            "cell_pool_speedup": sequential_s / pooled_s,
            "cell_pool_pair_seconds": [list(pair) for pair in pairs],
        }
    common.write_bench_record(
        "study_orchestration",
        lp_workers=common.bench_engine().cache.workers,
        update=True,
        cell_pool_grid_cells=cells,
        cell_pool_width=CELL_POOL_WIDTH,
        cell_pool_blas_threads=os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS"),  # None: the library default
        cell_pool_degraded=degraded,
        **scaling_metrics,
    )


# --------------------------------------------------------------------- #
# Suite layer: expansion throughput + warehouse append overhead
# --------------------------------------------------------------------- #
def _suite_descriptor(repetitions: int = 2) -> dict:
    """Two studies over the warmed geant schemes, repeated ``repetitions``x.

    No ``seeds`` axis: the bench scenario specs pin their seed (shared with
    every other bench via the session caches), and a suite seeds axis would
    rightly refuse to override a pinned seed.
    """
    return {
        "name": "bench-suite",
        "repetitions": repetitions,
        "studies": [
            {"name": "replay", "spec": {
                "scenario": common.scenario_spec("geant_small"),
                "scheme": sweep(
                    common.scheme_spec("figret", "geant_small", 0.1, EPOCHS),
                    common.scheme_spec("dote", "geant_small", 0.0, EPOCHS),
                ),
                "max_intervals": MAX_INTERVALS,
            }},
            {"name": "fluctuation", "spec": {
                "scenario": common.scenario_spec("geant_small"),
                "scheme": common.scheme_spec("figret", "geant_small", 0.1, EPOCHS),
                "perturbation": dict(FLUCTUATION),
                "max_intervals": MAX_INTERVALS,
            }},
        ],
    }


@pytest.mark.paper("suite orchestration")
def test_suite_orchestration_and_warehouse_overhead(tmp_path):
    """Suite expansion is pure dict work; warehouse appends stay invisible.

    Expansion throughput is measured on a 600-cell descriptor (200
    repetitions of the 3-cell suite) and floored very conservatively at 200
    cells/sec.  The run comparison times a warm suite run (trainings and
    replays all cache hits via the session caches) with and without a
    warehouse attached -- the gap is exactly the durable-append cost, and
    the per-cell append time lands in the record for trend tracking.
    """
    wide = _suite_descriptor(repetitions=200)
    gc.collect()
    start = time.perf_counter()
    wide_cells = expand_suite(wide)
    expand_seconds = time.perf_counter() - start
    expand_rate = len(wide_cells) / expand_seconds
    assert len(wide_cells) == 600
    assert expand_rate >= 200.0, (
        f"suite expansion slowed to {expand_rate:.0f} cells/s (floor 200/s)"
    )

    engine = common.bench_engine()
    descriptor = _suite_descriptor()

    def suite():
        return Suite(
            descriptor,
            scheme_cache=common.SCHEME_CACHE,
            scenario_cache=common.SCENARIO_CACHE,
        )

    suite().run(engine=engine)  # warm trainings, replays, normalisers
    cells = len(suite())

    warehouse = ResultWarehouse(tmp_path / "bench_suite.jsonl")
    plain_s, warehouse_s = _compare(
        lambda: suite().run(engine=engine),
        lambda: suite().run(engine=engine, warehouse=warehouse),
        rounds=5,
    )
    records = warehouse.results()
    assert len(records) == 5 * cells  # every timed round appended its cells
    append_seconds_per_cell = max(0.0, warehouse_s - plain_s) / cells

    print(
        f"suite: {expand_rate:.0f} expanded cells/s; warm run {plain_s * 1e3:.1f} ms "
        f"plain vs {warehouse_s * 1e3:.1f} ms warehoused "
        f"({append_seconds_per_cell * 1e3:.2f} ms/cell durable append)"
    )

    common.write_bench_record(
        "study_orchestration",
        lp_workers=engine.cache.workers,
        update=True,
        suite_cells=cells,
        suite_expand_cells=len(wide_cells),
        suite_expand_seconds=expand_seconds,
        suite_expand_cells_per_second=expand_rate,
        suite_warm_run_seconds=plain_s,
        suite_warm_warehoused_run_seconds=warehouse_s,
        suite_warehouse_append_seconds_per_cell=append_seconds_per_cell,
    )
