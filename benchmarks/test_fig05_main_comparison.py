"""Figure 5: the headline comparison of FIGRET against every baseline.

Four sub-benchmarks mirror the paper's four panels:

* (a) GEANT and pFabric (with Oblivious / COPE, which are only feasible on
  small topologies);
* (b) ToR-level Meta DB and WEB clusters (the most dynamic traffic, where
  FIGRET's advantage over DOTE is largest);
* (c) PoD-level Meta DB and WEB clusters;
* (d) Cogentco and UsCarrier with stable gravity traffic (every scheme close
  to optimal).

Every reported MLU is normalised by the omniscient optimum of the same
demand matrix.  The expected *shape*: FIGRET's mean is the lowest (or tied
with DOTE), FIGRET has fewer severe-congestion events than DOTE on ToR
traffic, Des TE / Pred TE / TEAL-like / Oblivious trail behind, and panel (d)
shows everything near 1 with no peaks.
"""

from __future__ import annotations

import pytest

import bench_common as common
from repro.evaluation.reporting import format_table
from repro.study import sweep


HEADERS = ["scheme", "mean", "p50", "p90", "p99", "worst", "severe>2"]


def _evaluate_panel(scenario_name, robustness_weight, epochs, include_oblivious=False,
                    include_teal=False):
    """One Figure-5 panel as a declarative study: a scheme sweep over one scenario."""
    schemes = [
        common.scheme_spec("figret", scenario_name, robustness_weight, epochs),
        common.scheme_spec("dote", scenario_name, 0.0, epochs),
        {"kind": "des_te"},
        {"kind": "pred_te", "label": "Pred TE"},
    ]
    if include_teal:
        schemes.append(common.scheme_spec("teal", scenario_name, 0.0, epochs))
    if include_oblivious:
        schemes.extend([{"kind": "oblivious"}, {"kind": "cope", "prediction_set_size": 4}])

    results = common.run_study(
        {
            "scenario": common.scenario_spec(scenario_name),
            "scheme": sweep(*schemes),
            "max_intervals": common.MAX_EVAL_INTERVALS,
        }
    )
    return {record.scheme: record.statistics for record in results}


def _print_panel(title, per_scenario):
    print()
    for scenario_name, results in per_scenario.items():
        rows = [common.stats_row(label, stats) for label, stats in results.items()]
        print(format_table(HEADERS, rows, title=f"{title} - {scenario_name}"))
        print()


@pytest.mark.paper("Figure 5(a)")
def test_fig05a_geant_and_pfabric(benchmark):
    def run():
        return {
            "geant_small": _evaluate_panel("geant_small", 0.1, 80),
            "pfabric_small": _evaluate_panel(
                "pfabric_small", 0.15, 35, include_oblivious=True, include_teal=True
            ),
        }

    per_scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_panel("Figure 5(a)", per_scenario)
    benchmark.extra_info["results"] = {
        scn: {k: vars(v) for k, v in res.items()} for scn, res in per_scenario.items()
    }
    # pFabric (bursty flow-level traffic): FIGRET matches DOTE, beats the
    # hedging baseline, and the worst-case-oriented schemes pay a large
    # normal-case penalty.
    pfabric = per_scenario["pfabric_small"]
    assert pfabric["FIGRET"].mean <= pfabric["DOTE"].mean * 1.08
    assert pfabric["FIGRET"].mean < pfabric["Des TE"].mean
    assert pfabric["Oblivious"].mean > pfabric["FIGRET"].mean
    # GEANT (mostly stable WAN): the learned schemes stay in the same band as
    # the LP baselines with no severe congestion.  (On the paper's real GEANT
    # trace FIGRET/DOTE are essentially optimal; the shortened synthetic trace
    # and CPU training budget leave them slightly above the LP here.)
    geant = per_scenario["geant_small"]
    assert geant["FIGRET"].mean <= geant["DOTE"].mean * 1.35
    assert geant["FIGRET"].severe_congestion_fraction <= 0.05
    assert geant["DOTE"].severe_congestion_fraction <= 0.05


@pytest.mark.paper("Figure 5(b)")
def test_fig05b_tor_level_clusters(benchmark):
    def run():
        return {
            "meta_tor_db_small": _evaluate_panel("meta_tor_db_small", 0.3, 35),
            "meta_tor_web_small": _evaluate_panel("meta_tor_web_small", 0.3, 35),
        }

    per_scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_panel("Figure 5(b)", per_scenario)
    benchmark.extra_info["results"] = {
        scn: {k: vars(v) for k, v in res.items()} for scn, res in per_scenario.items()
    }
    for results in per_scenario.values():
        assert results["FIGRET"].mean < results["Des TE"].mean
        assert results["FIGRET"].mean <= results["DOTE"].mean * 1.05
        # The headline claim: fewer severe congestion events than DOTE.
        assert (
            results["FIGRET"].severe_congestion_fraction
            <= results["DOTE"].severe_congestion_fraction + 1e-9
        )


@pytest.mark.paper("Figure 5(c)")
def test_fig05c_pod_level_clusters(benchmark):
    def run():
        return {
            "meta_pod_db_small": _evaluate_panel(
                "meta_pod_db_small", 0.15, 35, include_oblivious=True, include_teal=True
            ),
            "meta_pod_web_small": _evaluate_panel("meta_pod_web_small", 0.15, 35),
        }

    per_scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_panel("Figure 5(c)", per_scenario)
    benchmark.extra_info["results"] = {
        scn: {k: vars(v) for k, v in res.items()} for scn, res in per_scenario.items()
    }
    for results in per_scenario.values():
        assert results["FIGRET"].mean < results["Des TE"].mean
        assert results["FIGRET"].mean <= results["DOTE"].mean * 1.08


@pytest.mark.paper("Figure 5(d)")
def test_fig05d_stable_gravity_wans(benchmark):
    def run():
        # The gravity traces are short, so extra epochs are cheap and keep the
        # learned schemes well past their uniform-split initialisation.
        return {
            "uscarrier_small": _evaluate_panel("uscarrier_small", 0.1, 60),
            "cogentco_small": _evaluate_panel("cogentco_small", 0.1, 60),
        }

    per_scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_panel("Figure 5(d)", per_scenario)
    benchmark.extra_info["results"] = {
        scn: {k: vars(v) for k, v in res.items()} for scn, res in per_scenario.items()
    }
    for results in per_scenario.values():
        # Gravity traffic is stable: no scheme suffers burst peaks and the
        # LP-based predictor is essentially optimal.
        assert results["Pred TE"].mean < 1.1
        assert results["Pred TE"].severe_congestion_fraction == 0.0
        assert results["FIGRET"].severe_congestion_fraction < 0.25
