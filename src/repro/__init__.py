"""FIGRET reproduction: fine-grained robustness-enhanced traffic engineering.

This package is a from-scratch reproduction of the system described in
*FIGRET: Fine-Grained Robustness-Enhanced Traffic Engineering* (SIGCOMM 2024),
including every substrate the paper's evaluation depends on: topologies,
traffic generators, path selection, LP-based TE baselines, a NumPy
deep-learning engine, the FIGRET / DOTE models, and the evaluation harness.

The most commonly used entry points are re-exported here:

>>> from repro import datasets, Figret
>>> scenario = datasets.load("geant_small", seed=1)
>>> model = Figret(scenario.paths)

Whole experiment grids are declared as data and run through the study layer:

>>> from repro import Study, sweep
>>> results = Study({"scenario": sweep("geant_small", "pfabric_small"),
...                  "scheme": {"kind": "figret"}}).run()
"""

import os as _os

#: Environment variables that once configured the package, each with what
#: replaced it.  A set one stops the import instead of being silently
#: ignored; an empty value counts as unset.  Every ``repro`` import runs
#: this check first.
_RETIRED_VARIABLES = {
    "REPRO_BACKEND": "there is no array backend to pick: the forward pass is "
    "float64 numpy",
    "REPRO_LP_BACKEND": "the LP solver is no longer selectable: normalisers run "
    "on the persistent HiGHS model, vertex-returning solves on linprog's LP in "
    "scipy's HiGHS core",
    "REPRO_LP_WORKERS": "the LP pool width is no longer read from the "
    "environment: it is OptimalMLUCache(workers=), which the CLI's "
    "--lp-workers builds",
}
for _name, _replacement in _RETIRED_VARIABLES.items():
    if _os.environ.get(_name):
        raise RuntimeError(f"{_name} is set, but {_replacement}.  Unset {_name}.")
del _name, _replacement

from repro.topology.graph import Topology
from repro.paths.path_set import PathSet
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence
from repro.te.config import TEConfiguration
from repro.core.figret import Figret
from repro.core.dote import Dote
from repro.study import ExperimentSpec, ResultSet, Study, sweep

__version__ = "1.1.0"

__all__ = [
    "Topology",
    "PathSet",
    "TrafficMatrix",
    "TrafficMatrixSequence",
    "TEConfiguration",
    "Figret",
    "Dote",
    "Study",
    "ExperimentSpec",
    "ResultSet",
    "sweep",
    "__version__",
]
