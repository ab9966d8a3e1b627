"""Figure 6: the comparison repeated with SMORE-style (Racke) path selection.

SMORE improves robustness through the *choice of candidate paths* rather than
through the split ratios.  The paper shows that swapping Yen's shortest paths
for Racke-style oblivious paths does not change the relative ordering of the
TE schemes, and that path selection alone (Pred TE on Racke paths == SMORE)
is not enough to handle bursts.
"""

from __future__ import annotations

import pytest

import bench_common as common
from repro.evaluation.reporting import format_table
from repro.paths.racke import racke_path_set
from repro.study import InlineScenario, Study, sweep


@pytest.mark.paper("Figure 6")
def test_fig06_racke_path_selection(benchmark):
    scenario = common.get_scenario("geant_small")
    racke_paths = racke_path_set(scenario.topology, k=3, seed=common.BENCH_SEED)
    train, _ = scenario.split()
    test = common.test_slice(scenario, 25)
    # The bundled scenario's traffic on a custom path set: a live
    # InlineScenario (keyed by identity, so -- as in test_fig19_20 -- it stays
    # out of the session-shared caches).
    racke_scenario = InlineScenario(
        paths=racke_paths, train=train, test=test,
        history_len=scenario.history_len, name="geant_small/racke",
    )
    spec = {
        "scenario": racke_scenario,
        "scheme": sweep(
            common.scheme_spec("figret", "geant_small", 0.1, 80),
            common.scheme_spec("dote", "geant_small", 0.1, 80),
            {"kind": "des_te"},
            {"kind": "pred_te"},   # == SMORE: Racke paths + predicted-demand LP
        ),
    }

    def run():
        return Study(spec).run().scheme_statistics()

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [common.stats_row(name, stats) for name, stats in results.items()]
    print()
    print(format_table(
        ["scheme", "mean", "p50", "p90", "p99", "worst", "severe>2"],
        rows,
        title="Figure 6: GEANT with SMORE (Racke) candidate paths; 'Pred TE' = SMORE",
    ))
    benchmark.extra_info["results"] = {k: vars(v) for k, v in results.items()}

    # Path selection alone does not change the ordering of the learned
    # schemes: FIGRET still tracks DOTE, and no scheme collapses just because
    # the candidate paths changed.
    assert results["FIGRET"].mean <= results["DOTE"].mean * 1.35
    assert results["FIGRET"].severe_congestion_fraction <= 0.1
