"""Figures 10 and 12 (Appendix C): heuristic fine-grained sensitivity functions.

Without any learning, replacing the fixed hedging threshold with a per-pair
function of traffic variance already shifts the normal-case / burst-case
balance.  Figure 10 sweeps the linear-function parameters of Table 7 and
Figure 12 the piecewise-function parameters of Table 8, both on the PoD-level
Meta DB scenario.

Each parameter table is declared as one study grid -- a labelled scheme-spec
sweep over one scenario via ``bench_common.run_study`` -- so the sweep shares
the session's scenario build and LP-cached normalisers with every other
benchmark instead of building and replaying its schemes by hand.
"""

from __future__ import annotations

import pytest

import bench_common as common
from repro.evaluation.reporting import format_table
from repro.study import sweep

#: Table 7: (number, min threshold, max threshold).
LINEAR_PARAMETERS = [
    ("1 (strict)", 1.0 / 3.0, 1.0 / 2.0),
    ("2 (strict)", 1.0 / 3.0, 2.0 / 3.0),
    ("3 (original-like)", 2.0 / 3.0, 2.0 / 3.0),
    ("4 (relaxed)", 2.0 / 3.0, 5.0 / 6.0),
    ("5 (both)", 1.0 / 3.0, 5.0 / 6.0),
]

#: Table 8: (number, min threshold, max threshold, breakpoint).
PIECEWISE_PARAMETERS = [
    ("1", 1.0 / 2.0, 2.0 / 3.0, 0.5),
    ("2", 1.0 / 2.0, 2.0 / 3.0, 0.65),
    ("3", 1.0 / 2.0, 2.0 / 3.0, 0.8),
    ("4 (original)", 2.0 / 3.0, 2.0 / 3.0, 0.5),
    ("5", 2.0 / 3.0, 5.0 / 6.0, 0.5),
    ("6", 2.0 / 3.0, 5.0 / 6.0, 0.65),
    ("7", 2.0 / 3.0, 5.0 / 6.0, 0.8),
]


def _run_sweep(scheme_specs):
    """One parameter table as a declarative study over the PoD DB scenario."""
    results = common.run_study(
        {
            "scenario": common.scenario_spec("meta_pod_db_small"),
            "scheme": sweep(*scheme_specs),
            "max_intervals": 25,
        }
    )
    return {record.scheme: record.statistics for record in results}


@pytest.mark.paper("Figure 10 / Table 7")
def test_fig10_linear_sensitivity_functions(benchmark):
    def run():
        specs = []
        for label, low, high in LINEAR_PARAMETERS:
            if low == high:
                # A flat linear function is exactly the fixed-threshold
                # Desensitization baseline.
                specs.append(
                    {"kind": "des_te", "sensitivity_threshold": high, "label": label}
                )
            else:
                specs.append(
                    {"kind": "linear_sens", "min_threshold": low,
                     "max_threshold": high, "label": label}
                )
        return _run_sweep(specs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [common.stats_row(label, stats) for label, stats in results.items()]
    print()
    print(format_table(["parameters", "mean", "p50", "p90", "p99", "worst", "severe>2"], rows,
                       title="Figure 10: linear heuristic-F parameter sweep (PoD-level Meta DB)"))
    benchmark.extra_info["results"] = {k: vars(v) for k, v in results.items()}

    # Appendix C's core claim: replacing the fixed threshold ("original") with
    # a variance-aware function improves the balance.  The combined strategy
    # ("both") beats the original fixed threshold on average and causes no
    # more severe congestion, and the strict strategies flatten the worst case.
    assert results["5 (both)"].mean <= results["3 (original-like)"].mean + 1e-9
    assert (
        results["5 (both)"].severe_congestion_fraction
        <= results["3 (original-like)"].severe_congestion_fraction + 1e-9
    )
    assert results["1 (strict)"].worst <= results["3 (original-like)"].worst + 1e-9


@pytest.mark.paper("Figure 12 / Table 8")
def test_fig12_piecewise_sensitivity_functions(benchmark):
    def run():
        specs = []
        for label, low, high, breakpoint in PIECEWISE_PARAMETERS:
            if low == high:
                specs.append(
                    {"kind": "des_te", "sensitivity_threshold": high, "label": label}
                )
            else:
                specs.append(
                    {"kind": "piecewise_sens", "min_threshold": low,
                     "max_threshold": high, "breakpoint": breakpoint, "label": label}
                )
        return _run_sweep(specs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [common.stats_row(label, stats) for label, stats in results.items()]
    print()
    print(format_table(["parameters", "mean", "p50", "p90", "p99", "worst", "severe>2"], rows,
                       title="Figure 12: piecewise heuristic-F parameter sweep (PoD-level Meta DB)"))
    benchmark.extra_info["results"] = {k: vars(v) for k, v in results.items()}

    # The piecewise variants with the stricter Min flatten the tail relative
    # to the fixed original threshold, at little cost in the average.
    assert results["1"].worst <= results["4 (original)"].worst + 1e-9
    assert (
        results["1"].severe_congestion_fraction
        <= results["4 (original)"].severe_congestion_fraction + 1e-9
    )
    assert results["1"].mean <= results["4 (original)"].mean * 1.05
