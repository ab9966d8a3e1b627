"""LP process-pool scaling on the larger WAN topologies (ROADMAP item).

The omniscient normalisers are the only CPU-bound LP work left in the replay
pipeline, and they fan out over a long-lived process pool.  This bench
measures solves/sec versus worker width on the Cogentco- and UsCarrier-like
scenarios (the topologies where one solve costs ~100 ms, so fan-out actually
pays) and emits a machine-readable ``BENCH_lp_worker_scaling.json`` record --
the same harness the engine-speedup records live in.

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
from repro.solvers.lp import solve_mlu_lp_batch

#: Demand rows solved per (scenario, width) measurement.  Each solve costs
#: ~100 ms on these topologies, so this bounds the bench to a few seconds.
NUM_DEMANDS = 6

SCENARIOS = ("cogentco_small", "uscarrier_small")


def _worker_widths() -> tuple[int | None, ...]:
    # Sequential baseline, a 2-wide pool (measurable even on 2-core boxes,
    # where the parent mostly waits on the pool), and the auto width when
    # it adds anything beyond those.
    widths: list[int | None] = [None, 2]
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
            demands = common.test_slice(scenario, NUM_DEMANDS).flat_demands()[
                : NUM_DEMANDS
            ]
            per_width = {}
            for width in _worker_widths():
                with warnings.catch_warnings():
                    # The in-process fallback warns once per process; the
                    # bench records the throughput either way.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    start = time.perf_counter()
                    solved = solve_mlu_lp_batch(scenario.paths, demands, workers=width)
                    elapsed = time.perf_counter() - start
                mlus = np.array([mlu for _, mlu in solved])
                if name in reference:
                    # Identical results regardless of pool width.
                    np.testing.assert_allclose(mlus, reference[name], atol=1e-9)
                else:
                    reference[name] = mlus
                per_width[str(width or 1)] = {
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
        swept_widths=[width or 1 for width in _worker_widths()],
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
