"""LP-based traffic engineering schemes (baselines of the paper)."""

from repro.solvers.lp import (
    solve_mlu_lp,
    solve_mlu_lp_batch,
    omniscient_mlu,
    OptimalMLUCache,
    shared_cache,
    count_lp_solves,
    LPSolveTally,
    MLUConstraintStructure,
    constraint_structure,
    OmniscientTE,
    PredictionBasedTE,
)
from repro.solvers.desensitization import DesensitizationTE, FaultAwareDesensitizationTE
from repro.solvers.heuristic_f import LinearSensitivityTE, PiecewiseSensitivityTE
from repro.solvers.oblivious import ObliviousTE, solve_oblivious_routing
from repro.solvers.cope import CopeTE

__all__ = [
    "solve_mlu_lp",
    "solve_mlu_lp_batch",
    "omniscient_mlu",
    "OptimalMLUCache",
    "shared_cache",
    "count_lp_solves",
    "LPSolveTally",
    "MLUConstraintStructure",
    "constraint_structure",
    "OmniscientTE",
    "PredictionBasedTE",
    "DesensitizationTE",
    "FaultAwareDesensitizationTE",
    "LinearSensitivityTE",
    "PiecewiseSensitivityTE",
    "ObliviousTE",
    "solve_oblivious_routing",
    "CopeTE",
]
