"""LP process-pool scaling on the larger WAN topologies (ROADMAP item).

The omniscient normalisers are the only CPU-bound LP work left in the replay
pipeline, and they fan out over a long-lived process pool.  This bench times
the batch an ``OptimalMLUCache(workers=N)`` issues for its misses -- value-only
solves on the persistent model -- versus worker width on the Cogentco- and
UsCarrier-like scenarios, and emits a machine-readable
``BENCH_lp_worker_scaling.json`` record.  Each worker builds its own model
once per chunk, so a batch needs a couple of dozen rows per worker before
fan-out can pay for that build.

Where process spawning is forbidden (sandboxes), ``solve_mlu_lp_batch``
solves its chunks in-process (``repro.pool`` counts each fallback and warns
once); the record then shows identical solves/sec per width, which is
itself a useful signal.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

import bench_common as common
from repro.pool import default_workers
from repro.solvers.lp import OptimalMLUCache

#: Demand rows solved per (scenario, width) measurement: 24 per worker at
#: width 2, enough to amortise each worker's model build.  A solve costs
#: ~20-40 ms on these topologies, so this bounds the bench to a few seconds.
NUM_DEMANDS = 48

SCENARIOS = ("cogentco_small", "uscarrier_small")


def _worker_widths() -> tuple[int, ...]:
    # Sequential baseline, a 2-wide pool (measurable even on 2-core boxes,
    # where the parent mostly waits on the pool), and the auto width when
    # it adds anything beyond those.
    widths = [1, 2]
    auto = default_workers()
    if auto > 2:
        widths.append(auto)
    return tuple(dict.fromkeys(widths))


@pytest.mark.paper("Appendix B solver scaling")
def test_lp_worker_scaling(benchmark):
    metrics: dict[str, dict] = {}
    reference: dict[str, np.ndarray] = {}

    def run():
        for name in SCENARIOS:
            scenario = common.get_scenario(name)
            # The test split is shorter than NUM_DEMANDS; the whole trace is not.
            demands = scenario.traffic.flat_demands()[:NUM_DEMANDS]
            per_width = {}
            for width in _worker_widths():
                with warnings.catch_warnings():
                    # The in-process fallback warns once per process; the
                    # bench records the throughput either way.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    cache = OptimalMLUCache(workers=width)
                    start = time.perf_counter()
                    mlus = cache.optimal_mlus(scenario.paths, demands)
                    elapsed = time.perf_counter() - start
                assert cache.misses == len(demands)
                if name in reference:
                    # Identical results regardless of pool width.
                    np.testing.assert_allclose(mlus, reference[name], atol=1e-9)
                else:
                    reference[name] = mlus
                per_width[str(width)] = {
                    "seconds": elapsed,
                    "solves_per_second": len(demands) / elapsed,
                }
            metrics[name] = per_width
        return metrics

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    # This bench sweeps pool widths itself, so the record header carries
    # lp_workers=null and the swept widths live in the metrics.
    common.write_bench_record(
        "lp_worker_scaling",
        lp_workers=None,
        swept_widths=list(_worker_widths()),
        num_demands=NUM_DEMANDS,
        scenarios=outcome,
    )
    print()
    for name, per_width in outcome.items():
        summary = ", ".join(
            f"{width}w: {vals['solves_per_second']:.1f}/s"
            for width, vals in per_width.items()
        )
        print(f"LP scaling {name} ({NUM_DEMANDS} solves): {summary}")
    for per_width in outcome.values():
        assert all(vals["solves_per_second"] > 0 for vals in per_width.values())
