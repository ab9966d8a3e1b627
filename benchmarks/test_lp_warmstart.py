"""Persistent HiGHS model on the omniscient solve hot path.

``BENCH_engine_replay.json`` recorded the cold LP pass as the dominant cost
of every first replay (~95 fresh solves/sec with scipy's ``linprog``).  The
persistent model every normaliser runs on
(:class:`~repro.solvers.lp_backend.PersistentHighsBackend`) builds one
HiGHS model per (path set, bounds) key, per demand only rewrites the
demand-carrying column bounds, and starts primal simplex from a canonical
shortest-path basis.  This bench measures, per scenario over the exact
demand family the engine-replay baseline solved -- from the smooth WAN trace
to the bursty ToR one, where carrying the previous basis over lost 10x --

* the solver's own ``simplex_iteration_count`` of crash-started solves
  against the pivots ``linprog`` needs from scratch for the same demand
  (deterministic, so this is what the bench *gates* on), and
* fresh solves/sec of ``ScipyLinprogBackend().solve_mlu`` against
  ``PersistentHighsBackend().solve_mlu``, called directly (recorded in
  ``BENCH_lp_warmstart.json``),

and asserts the two solvers agree on every optimal MLU to 1e-9.

Without the HiGHS bindings the bench skips (it exists to pin the persistent
model's win, not to re-measure scipy alone).

Methodology notes baked into the record:

* "Fresh" means no value cache: every demand row is LP-solved; only the
  *model* (constraint structure for scipy, the persistent HiGHS model for
  highs) is reused, exactly as in a cold :class:`OptimalMLUCache` pass.
* Each solver's rate is one timed sweep over the demand family (the highs
  sweep includes the one-time model build).  Rates are recorded, not gated:
  wall-clock comparisons belong to perfbench's interleaved pairs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.optimize import linprog

import bench_common as common
from repro.solvers.lp import constraint_structure
from repro.solvers.lp_backend import PersistentHighsBackend, ScipyLinprogBackend

#: Scenarios x the engine-replay evaluation slice: the same demand family the
#: 94.8 solves/sec baseline in BENCH_engine_replay.json was measured on, from
#: the smooth end of the trace-smoothness axis (gravity WAN) to the bursty
#: one (ToR-level data centre).
SCENARIOS = ("geant_small", "pfabric_small", "meta_tor_db_small")
BASELINE_SCENARIO = "geant_small"
#: Gate: median crash-started pivots over median from-scratch pivots.
MAX_CRASH_ITERATION_SHARE = 1 / 3
#: Equivalence tolerance between the two solvers on the optimal MLU.
MLU_EQUIVALENCE_ATOL = 1e-9


def _fresh_rate(path_set, demands, solver) -> tuple[dict, np.ndarray]:
    """Fresh solves/sec of one timed sweep for one solver on one family."""
    upper = constraint_structure(path_set).trivial_upper
    start = time.perf_counter()
    mlus = np.array([solver.solve_mlu(path_set, demand, upper) for demand in demands])
    elapsed = time.perf_counter() - start
    return {
        "fresh_lp_solves_per_second": len(demands) / elapsed,
        "num_demands": len(demands),
    }, mlus


def _simplex_iterations(path_set, demands) -> dict:
    """The solver's own pivot counts per demand: crash-started vs from scratch.

    From scratch is ``linprog``: the same HiGHS simplex with its defaults
    (presolve, slack basis) on the same LP, which is what the default ran
    for every normaliser before.  Both counts are deterministic.
    """
    structure = constraint_structure(path_set)
    upper = structure.trivial_upper
    model = PersistentHighsBackend()._model(path_set, upper)
    crash, scratch = [], []
    for demand in demands:
        model.solve_mlu(demand)
        crash.append(model._solver.getInfo().simplex_iteration_count)
        from_scratch = linprog(
            structure.cost,
            A_ub=structure.a_ub(demand),
            b_ub=structure.b_ub,
            A_eq=structure.a_eq,
            b_eq=structure.b_eq,
            bounds=structure.bounds_array(upper),
            method="highs",
        )
        scratch.append(from_scratch.nit)
    return {
        "crash_simplex_iterations_median": float(np.median(crash)),
        "crash_simplex_iterations_max": int(max(crash)),
        "scratch_simplex_iterations_median": float(np.median(scratch)),
        "crash_vs_scratch_iteration_share": float(np.median(crash) / np.median(scratch)),
    }


@pytest.mark.paper("Appendix B Eq. 9 solver throughput")
def test_lp_warmstart(benchmark):
    try:
        PersistentHighsBackend()
    except ImportError:
        pytest.skip("no importable HiGHS bindings (highspy or scipy >= 1.15)")
    metrics: dict[str, dict] = {}

    def run():
        for name in SCENARIOS:
            scenario = common.get_scenario(name)
            demands = common.test_slice(scenario).flat_demands()
            per_backend: dict[str, dict] = {}
            reference: dict[str, np.ndarray] = {}
            solvers = {"scipy": ScipyLinprogBackend(), "highs": PersistentHighsBackend()}
            for solver_name, solver in solvers.items():
                rates, mlus = _fresh_rate(scenario.paths, demands, solver)
                per_backend[solver_name] = rates
                reference[solver_name] = mlus
            # The tentpole's correctness bar, asserted in the bench itself:
            # identical optimal MLUs to 1e-9 across the whole family.
            np.testing.assert_allclose(
                reference["highs"],
                reference["scipy"],
                atol=MLU_EQUIVALENCE_ATOL,
                rtol=0,
            )
            per_backend["highs"].update(_simplex_iterations(scenario.paths, demands))
            per_backend["speedup_vs_scipy"] = (
                per_backend["highs"]["fresh_lp_solves_per_second"]
                / per_backend["scipy"]["fresh_lp_solves_per_second"]
            )
            metrics[name] = per_backend
        return metrics

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    headline = outcome[BASELINE_SCENARIO]["highs"]["fresh_lp_solves_per_second"]
    common.write_bench_record(
        "lp_warmstart",
        lp_workers=1,  # throughput of ONE process; pools multiply it
        equivalence_atol=MLU_EQUIVALENCE_ATOL,
        max_crash_iteration_share=MAX_CRASH_ITERATION_SHARE,
        baseline_scenario=BASELINE_SCENARIO,
        fresh_lp_solves_per_second=headline,
        scenarios=outcome,
    )
    print()
    for name, per_backend in outcome.items():
        scipy_rate = per_backend["scipy"]["fresh_lp_solves_per_second"]
        highs = per_backend["highs"]
        print(
            f"LP persistent model {name}: scipy {scipy_rate:.1f}/s, "
            f"highs {highs['fresh_lp_solves_per_second']:.1f}/s "
            f"({per_backend['speedup_vs_scipy']:.1f}x), "
            f"pivots {highs['crash_simplex_iterations_median']:.0f} crash-started vs "
            f"{highs['scratch_simplex_iterations_median']:.0f} from scratch"
        )
    # The gate is the pivot count, not a wall-clock ratio: it is what the
    # canonical start buys, it is the same number on every box and every
    # run, and it would have caught basis carry-over on the bursty trace
    # (~1960 pivots against ~570 from scratch).  Solves per second are
    # recorded, not gated.
    for name, per_backend in outcome.items():
        share = per_backend["highs"]["crash_vs_scratch_iteration_share"]
        assert share <= MAX_CRASH_ITERATION_SHARE, (
            f"crash-started solves on {name} take {share:.2f} of the pivots "
            f"of from-scratch solves (need <= {MAX_CRASH_ITERATION_SHARE:.2f})"
        )
