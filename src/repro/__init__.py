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
