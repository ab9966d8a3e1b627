"""Replaying a trace on a pluggable array backend.

Run with::

    python examples/backend_replay.py
    REPRO_BACKEND=python python examples/backend_replay.py

The replay hot path -- the neural forward pass, the batched MLU computation
and failure rerouting -- runs on a pluggable array backend (see
``repro.backend``).  The default ``numpy`` backend is bit-identical to the
classic engine; ``numpy32`` exercises the float32 code path GPU backends
use; ``torch`` is picked up automatically when installed (and falls back
to numpy with a warning when not).  LP normalisers always stay on
CPU/HiGHS behind the shared cache.

This script replays the same scheme on every locally available backend and
prints how far each one drifts from the float64 numpy reference -- the same
check the CI backend matrix enforces (bit-identical for numpy, ~1e-9 for
the pure-python reference, ~1e-6 for float32 backends).
"""

from __future__ import annotations

import time

import numpy as np

from repro import datasets
from repro.backend import active_backend, get_backend
from repro.evaluation.engine import EvaluationEngine
from repro.solvers import DesensitizationTE


def main() -> None:
    scenario = datasets.load("meta_pod_db_small", seed=7, num_intervals=60)
    train, test = scenario.split()
    scheme = DesensitizationTE(scenario.paths)
    scheme.precompute(train)
    history_len = scenario.history_len

    print(f"Scenario: {scenario.name}, {len(test)} test intervals")
    print(f"Active backend (REPRO_BACKEND or default): {active_backend().name}\n")

    # The float64 numpy replay is the reference everything is pinned to.
    reference_engine = EvaluationEngine(backend="numpy")
    reference = reference_engine.evaluate_scheme(scheme, test, history_len)

    for name in ("numpy", "numpy32", "python", "torch"):
        backend = get_backend(name)  # a missing torch warns + falls back
        engine = EvaluationEngine(cache=reference_engine.cache, backend=backend)
        start = time.perf_counter()
        result = engine.evaluate_scheme(scheme, test, history_len)
        elapsed = time.perf_counter() - start
        drift = float(
            np.max(np.abs(result.normalized_mlus - reference.normalized_mlus))
        )
        label = name if backend.name == name else f"{name} -> {backend.name}"
        print(
            f"{label:>16}: replay {elapsed * 1e3:7.1f} ms, "
            f"max drift vs numpy {drift:.2e} "
            f"(tolerance {backend.tolerance:.0e})"
        )
        assert drift <= max(backend.tolerance, 1e-12), name

    print("\nEvery backend matches the reference within its tolerance.")


if __name__ == "__main__":
    main()
