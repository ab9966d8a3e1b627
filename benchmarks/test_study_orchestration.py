"""Study-orchestration overhead and LP-solve dedup.

Two guarantees of the declarative layer are pinned here:

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
* **Configuration dedup** -- a study on a fresh engine configures each
  scheme once per distinct trace: beside its replay and fluctuation cells,
  a pair's one-chunk streaming cells and its failure cell add *zero*
  ``configure_batch`` calls, and the same studies re-run on that engine
  configure nothing -- its replay memo serves them (asserted by exact
  count).

All tests extend one ``BENCH_study_orchestration.json`` record (later
writers merge via ``write_bench_record(update=True)``).
"""

from __future__ import annotations

import fcntl
import gc
import os
import time

import pytest

import bench_common as common
from repro.core.trainer import TrainerBackedScheme
from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import OptimalMLUCache, count_lp_solves
from repro.study import ResultWarehouse, Study, expand_suite, sweep
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


def _configuration_studies():
    """Per scenario, one study of its grid, the grid again as one-chunk
    streaming cells, and a failure cell per scheme.

    Per (scenario, scheme) pair two traces are configured -- unperturbed and
    fluctuated -- however many cells replay or reroute them.
    """
    studies = []
    for name in SCENARIOS:
        grid = _grid_spec(name, _scheme_specs(name))
        studies.append([
            grid,
            dict(grid, streaming=True),  # the default chunk covers MAX_INTERVALS
            dict(grid, perturbation={"kind": "failure", "num_failures": 1, "num_trials": 2}),
        ])
    return studies


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
def test_study_orchestration_overhead_and_dedup(benchmark, monkeypatch):
    schemes = _pretrain_all()
    engine = common.bench_engine()

    def run_study():
        # A fresh engine on the warm LP cache: the round replays what the
        # direct path replays, so the gap is orchestration, not memo reuse.
        fresh = EvaluationEngine(cache=engine.cache)
        return [
            Study(spec, scheme_cache=common.SCHEME_CACHE, scenario_cache=common.SCENARIO_CACHE).run(
                engine=fresh
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
    # Tallies keep counting after their block: read them before the
    # failure cells below solve their masked normalisers.
    axis_solves, rerun_solves = axis_tally.count, rerun_tally.count

    # --- Configuration dedup: one configure_batch per pair and trace on an
    # engine whose replay memo is empty, none on a re-run on that engine.
    configured = []
    real_configure_batch = TrainerBackedScheme.configure_batch

    def counting_configure_batch(scheme, windows):
        configured.append(scheme.name)
        return real_configure_batch(scheme, windows)

    def configuration_studies(on):
        return sum(
            len(
                Study(
                    specs, scheme_cache=common.SCHEME_CACHE, scenario_cache=common.SCENARIO_CACHE
                ).run(engine=on)
            )
            for specs in _configuration_studies()
        )

    monkeypatch.setattr(TrainerBackedScheme, "configure_batch", counting_configure_batch)
    memo_engine = EvaluationEngine(cache=cold_engine.cache)
    configuration_cells = configuration_studies(memo_engine)
    first_configured = len(configured)
    configuration_studies(memo_engine)
    rerun_configured = len(configured) - first_configured
    monkeypatch.undo()
    pairs = len(SCENARIOS) * len(_scheme_specs(SCENARIOS[0]))

    results = benchmark.pedantic(run_study, rounds=1, iterations=1)
    cells = sum(len(result_set) for result_set in results)
    print()
    print(
        f"Study orchestration: {cells} cells, direct {direct_s * 1e3:.1f} ms, "
        f"study {study_s * 1e3:.1f} ms, overhead {overhead * 100:+.2f}%"
    )
    print(
        f"LP dedup: {cold_solves} cold solves for the scenario x perturbation axes, "
        f"+{axis_solves} for the full scheme axis, +{rerun_solves} on re-run"
    )
    print(
        f"Configuration dedup: {first_configured} configure_batch calls for "
        f"{configuration_cells} cells over {pairs} pairs, +{rerun_configured} on re-run"
    )
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["cold_solves"] = cold_solves

    assert cold_solves > 0  # the cold engine really did the normaliser pass
    assert axis_solves == 0  # scheme axis: zero repeat LP solves
    assert rerun_solves == 0  # warm re-run: zero repeat LP solves
    # Streaming and failure cells: zero repeat configurations; a re-run on
    # the same engine: zero configurations.
    assert configuration_cells == 5 * pairs
    assert first_configured == 2 * pairs
    assert rerun_configured == 0

    common.write_bench_record(
        "study_orchestration",
        lp_workers=engine.cache.workers,
        update=True,
        grid_cells=cells,
        direct_seconds=direct_s,
        study_seconds=study_s,
        orchestration_overhead=overhead,
        cold_lp_solves=cold_solves,
        scheme_axis_extra_solves=axis_solves,
        rerun_extra_solves=rerun_solves,
        configuration_cells=configuration_cells,
        configure_batch_calls=first_configured,
        rerun_configure_batch_calls=rerun_configured,
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
def test_suite_orchestration_and_warehouse_overhead(tmp_path, monkeypatch):
    """Suite expansion is pure dict work; warehouse appends stay invisible.

    Expansion throughput is measured on a 600-cell descriptor (200
    repetitions of the 3-cell suite) and floored very conservatively at 200
    cells/sec.  The run comparison times a warm suite run (trainings and
    replays all cache hits via the session caches) with and without a
    warehouse attached -- the gap is exactly the durable-append cost, and
    the per-cell append time lands in the record for trend tracking.  Each
    warehoused round makes one append fsync on the warehouse: a run that
    trains and solves nothing commits all its cells at once.
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
        return Study(
            descriptor,
            scheme_cache=common.SCHEME_CACHE,
            scenario_cache=common.SCENARIO_CACHE,
        )

    suite().run(engine=engine)  # warm trainings, replays, normalisers
    cells = len(suite())

    warehouse = ResultWarehouse(tmp_path / "bench_suite.jsonl")
    appends: list[int] = []
    fsync = os.fsync

    def counting_fsync(fd):
        # An append's fsync is the one on an O_APPEND descriptor.
        if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND:
            appends.append(os.fstat(fd).st_ino)
        fsync(fd)

    with monkeypatch.context() as patched:
        patched.setattr(os, "fsync", counting_fsync)
        plain_s, warehouse_s = _compare(
            lambda: suite().run(engine=engine),
            lambda: suite().run(engine=engine, warehouse=warehouse),
            rounds=5,
        )
    records = warehouse.results()
    assert len(records) == 5 * cells  # every timed round appended its cells
    assert appends == [os.stat(warehouse.path).st_ino] * 5
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
