"""Table 2: calculation time and precomputation time per TE scheme.

The paper's findings to reproduce:

* FIGRET's per-interval calculation (a DNN forward pass) is orders of
  magnitude faster than solving the LP, and adding the hedging constraints
  (Des TE) makes the LP slower still.
* Oblivious / COPE are feasible only on small topologies -- their LP size
  explodes with the network (our benchmark demonstrates feasibility on the
  small full-mesh and reports the variable count that rules out ToR-scale
  networks).

Absolute numbers differ from the paper (CPU here vs GPU + Gurobi there); the
*ordering* and rough ratios are the reproduction target.
"""

from __future__ import annotations

import statistics
import time

import pytest

import bench_common as common
from repro.evaluation.reporting import format_table
from repro.solvers.oblivious import oblivious_problem_size, solve_oblivious_routing
from repro.study import build_scheme


@pytest.mark.paper("Table 2")
@pytest.mark.parametrize("scenario_name", ["geant_small", "meta_tor_db_small"])
def test_tab02_calculation_and_precompute_time(benchmark, scenario_name):
    scenario = common.get_scenario(scenario_name)
    train, _ = scenario.split()
    test = common.test_slice(scenario, 10)

    # FIGRET is cached (already trained by earlier benches when they ran
    # first); measure its inference separately from its training time.
    figret = common.trained_scheme(
        "figret", scenario_name, 0.1 if scenario_name == "geant_small" else 0.3,
        80 if scenario_name == "geant_small" else 35,
    )

    def run():
        flat = test.flat_demands()
        h = scenario.history_len
        # Per-interval calculation time of FIGRET (forward pass).
        start = time.perf_counter()
        samples = 0
        for t in range(h, len(flat)):
            figret.configure(flat[t - h : t])
            samples += 1
        figret_calc = (time.perf_counter() - start) / max(samples, 1)

        # The LP baselines come from the same scheme-spec registry the study
        # grids build from, so tab02 times exactly what the grids replay.
        # The two are timed interleaved, interval by interval, and compared
        # on medians, so a second process on the box slows both alike
        # instead of whichever scheme happened to be running.
        lp_times: dict[str, list[float]] = {"pred_te": [], "des_te": []}
        schemes = {kind: build_scheme({"kind": kind}, scenario.paths) for kind in lp_times}
        for scheme in schemes.values():
            scheme.precompute(train)
        for t in range(h, min(len(flat), h + 5)):
            for kind, scheme in schemes.items():
                start = time.perf_counter()
                scheme.configure(flat[t - h : t])
                lp_times[kind].append(time.perf_counter() - start)
        return {
            "FIGRET": figret_calc,
            "LP": statistics.median(lp_times["pred_te"]),
            "Des TE": statistics.median(lp_times["des_te"]),
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    oblivious_vars = oblivious_problem_size(scenario.paths)
    rows = [
        ["FIGRET (DNN forward)", f"{times['FIGRET'] * 1e3:.2f} ms"],
        ["LP (no anti-burst)", f"{times['LP'] * 1e3:.2f} ms"],
        ["Des TE (LP + sensitivity caps)", f"{times['Des TE'] * 1e3:.2f} ms"],
        ["Oblivious/COPE LP variables", f"{oblivious_vars:,}"],
    ]
    print()
    print(format_table(["scheme", "per-interval calculation"], rows,
                       title=f"Table 2 ({scenario_name}): calculation time"))
    benchmark.extra_info["times"] = times
    benchmark.extra_info["oblivious_variables"] = oblivious_vars

    # Ordering reproduced: FIGRET << LP <= Des TE.
    assert times["FIGRET"] < times["LP"]
    assert times["LP"] <= times["Des TE"] * 1.5


@pytest.mark.paper("Table 2 (precomputation)")
def test_tab02_oblivious_feasibility_boundary(benchmark):
    small = common.get_scenario("meta_pod_db_small")
    tor = common.get_scenario("meta_tor_db_small")

    def run():
        start = time.perf_counter()
        _, ratio = solve_oblivious_routing(small.paths)
        elapsed = time.perf_counter() - start
        return elapsed, ratio

    elapsed, ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    small_vars = oblivious_problem_size(small.paths)
    tor_vars = oblivious_problem_size(tor.paths)
    rows = [
        [small.name, f"{small_vars:,}", f"feasible ({elapsed:.2f}s, ratio {ratio:.2f})"],
        [tor.name, f"{tor_vars:,}", "impractical (variable count)"],
    ]
    print()
    print(format_table(["network", "oblivious LP variables", "status"], rows,
                       title="Table 2: oblivious/COPE precomputation feasibility"))
    benchmark.extra_info["small_variables"] = small_vars
    benchmark.extra_info["tor_variables"] = tor_vars

    assert ratio >= 1.0
    assert tor_vars > 20 * small_vars
