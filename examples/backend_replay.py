"""Replaying a trace on a pluggable array backend.

Run with::

    python examples/backend_replay.py
    REPRO_BACKEND=python python examples/backend_replay.py

A backend runs what a device accelerates: the neural schemes' forward pass
(see ``repro.backend``).  Per-pair normalisation, the MLU computation and
failure rerouting are sparse products that stay on the host, and the LP
schemes and normalisers stay on CPU/HiGHS, so a backend changes nothing but
the forward.  The default ``numpy`` backend is bit-identical to the classic
engine; ``numpy32`` runs the forward in float32 as a device would; ``python``
is the pure-python reference.

This script replays a briefly trained FIGRET on every registered backend and
prints how far each one drifts from the float64 numpy reference -- the
forward's drift, the same check the CI backend matrix enforces (bit-identical
for numpy, ~1e-9 for the pure-python reference, ~1e-6 for float32 backends).
"""

from __future__ import annotations

import time

import numpy as np

from repro import datasets
from repro.backend import active_backend, available_backends, get_backend
from repro.core import Figret, TrainingConfig
from repro.evaluation.engine import EvaluationEngine


def main() -> None:
    scenario = datasets.load("meta_pod_db_small", seed=7, num_intervals=60)
    train, test = scenario.split()
    history_len = scenario.history_len
    # A few epochs on a small network: the drift is the forward's whatever
    # the weights are.
    scheme = Figret(
        scenario.paths,
        TrainingConfig(epochs=3, history_len=history_len, hidden_sizes=(32, 32)),
    )
    scheme.precompute(train)

    print(f"Scenario: {scenario.name}, {len(test)} test intervals")
    print(f"Active backend (REPRO_BACKEND or default): {active_backend().name}\n")

    # The float64 numpy replay is the reference everything is pinned to.
    reference_engine = EvaluationEngine(backend="numpy")
    reference = reference_engine.evaluate_scheme(scheme, test, history_len)

    for name in available_backends():
        backend = get_backend(name)
        engine = EvaluationEngine(cache=reference_engine.cache, backend=backend)
        start = time.perf_counter()
        result = engine.evaluate_scheme(scheme, test, history_len)
        elapsed = time.perf_counter() - start
        drift = float(
            np.max(np.abs(result.normalized_mlus - reference.normalized_mlus))
        )
        print(
            f"{name:>16}: replay {elapsed * 1e3:7.1f} ms, "
            f"max drift vs numpy {drift:.2e} "
            f"(tolerance {backend.tolerance:.0e})"
        )
        assert drift <= max(backend.tolerance, 1e-12), name

    print("\nEvery backend matches the reference within its tolerance.")


if __name__ == "__main__":
    main()
