"""The one process pool: who may open one, and what a fallback does.

LP batches and study cells share :mod:`repro.pool`: its executors, its width
rule and its one fallback path.  These tests drive that path with in-process
fake executors (fast and deterministic): an executor whose construction is
denied, one whose pool breaks under a running job, and one that runs every
job inline.  A fallback hands the pool's jobs back to the caller, which runs
them in-process: the results are those of a sequential run, the label's
counter goes up on every call, a warning fires on the first one only, and
the next call tries a fresh pool.
"""

from __future__ import annotations

import ast
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import pool as pool_module
from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import OptimalMLUCache, solve_mlu_lp_batch
from repro.study import Study, StudyCheckpoint


def _scenario(name: str) -> dict:
    return {
        "name": name,
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "seed": 3, "num_intervals": 40},
        "history_len": 3,
    }


def _grid_spec(name: str) -> dict:
    """Three (scenario, scheme) groups -- three pool jobs -- of two cells each."""
    return {
        "scenario": _scenario(name),
        "scheme": {"sweep": [
            {"kind": "pred_te"},
            {"kind": "omniscient"},
            {"kind": "dote", "epochs": 1, "history_len": 3, "seed": 0},
        ]},
        "perturbation": {"sweep": [
            {"kind": "none"},
            {"kind": "fluctuation", "alpha": 0.5, "seed": 1},
        ]},
        "max_intervals": 3,
    }


def _engine() -> EvaluationEngine:
    return EvaluationEngine(cache=OptimalMLUCache(workers=1))


@pytest.fixture()
def fake_executor(monkeypatch):
    """Install an executor class in :mod:`repro.pool` on a clean slate."""

    def install(executor):
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", executor)
        return executor

    # No pool from an earlier test may serve these calls, no fake may leak
    # to a later one, and each test starts with zero fallbacks (warn-once
    # state included).
    monkeypatch.setattr(pool_module, "_POOL_CACHE", {})
    monkeypatch.setattr(pool_module, "_FALLBACKS", {})
    return install


class InlineExecutor:
    """Runs every submitted job at once, in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def submit(self, fn, job):
        future = Future()
        try:
            future.set_result(fn(job))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, **kwargs):
        pass


class SpawnDenied:
    """An executor the sandbox will not let us build (counts the attempts)."""

    attempts = 0

    def __init__(self, max_workers):
        type(self).attempts += 1
        raise PermissionError(1, "Operation not permitted")


class BreakingExecutor(InlineExecutor):
    """The first job finishes, the pool dies under the second, and shutting
    the dead pool down cancels every job still queued behind them."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.futures: list[Future] = []

    def submit(self, fn, job):
        if not self.futures:
            future = super().submit(fn, job)
        else:
            future = Future()
            if len(self.futures) == 1:
                future.set_exception(BrokenProcessPool("a worker died abruptly"))
        self.futures.append(future)
        return future

    def shutdown(self, cancel_futures=False, **kwargs):
        for future in self.futures:
            if cancel_futures and future.cancel():
                future.set_running_or_notify_cancel()


def _pool_warnings(caught) -> list:
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning) and "process-pool" in str(w.message)
    ]


def test_only_the_pool_module_opens_process_pools():
    src = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == src / "pool.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                modules = ["concurrent"] if name == "ProcessPoolExecutor" else []
            else:
                continue
            if any(module.split(".")[0] == "concurrent" for module in modules):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == [], "process pools belong in repro/pool.py"


def test_only_the_lp_module_imports_the_solver_rule():
    """``solvers/lp_backend.py`` decides which solver serves which solve, and
    ``solvers/lp.py`` is the one module that asks it."""
    src = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path in (src / "solvers" / "lp.py", src / "solvers" / "lp_backend.py"):
            continue
        package = ".".join(("repro", *path.relative_to(src).parent.parts))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parent = package.rsplit(".", node.level - 1)[0]
                    base = ".".join(filter(None, (parent, base)))
                modules = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if "repro.solvers.lp_backend" in modules:
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == [], "only repro/solvers/lp.py may import repro.solvers.lp_backend"


def test_the_pool_module_is_a_leaf():
    tree = ast.parse((Path(repro.__file__).parent / "pool.py").read_text(encoding="utf-8"))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert imported and not [
        name for name in imported if name.startswith((".", "repro"))
    ]


class TestFallbackRetriesPerCall:
    """A denied pool is retried on every call; only the first call warns."""

    def test_lp_batches(self, fake_executor, mesh4_paths, rng):
        fake_executor(SpawnDenied).attempts = 0
        demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
        sequential = solve_mlu_lp_batch(mesh4_paths, demands, workers=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for call in range(1, 4):
                pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
                assert SpawnDenied.attempts == call
                assert pool_module.fallbacks("lp") == call
                assert pooled.tobytes() == sequential.tobytes()
        [warning] = _pool_warnings(caught)
        message = str(warning.message)
        assert "process-pool LP batch failed" in message
        assert "next call tries a fresh pool" in message
        assert "from now on" not in message
        assert pool_module.fallbacks("cells") == 0

    def test_study_cells(self, fake_executor):
        fake_executor(SpawnDenied).attempts = 0
        spec = _grid_spec("pool_retry")
        sequential = Study(spec).run(engine=_engine()).to_json()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for call in range(1, 3):
                pooled = Study(spec).run(engine=_engine(), cell_workers=2)
                assert SpawnDenied.attempts == call
                assert pool_module.fallbacks("cells") == call
                assert pooled.to_json() == sequential
        [warning] = _pool_warnings(caught)
        assert "process-pool study cell batch failed" in str(warning.message)
        assert pool_module.fallbacks("lp") == 0


class TestCellPoolFallback:
    def test_spawn_denied_at_construction_runs_the_grid_in_process(self, fake_executor):
        fake_executor(SpawnDenied)
        spec = _grid_spec("pool_denied")
        sequential = Study(spec).run(engine=_engine())
        with pytest.warns(RuntimeWarning, match="study cell batch failed") as caught:
            pooled = Study(spec).run(engine=_engine(), cell_workers=2)
        assert len(_pool_warnings(caught)) == 1
        assert pooled.to_json() == sequential.to_json()

    def test_broken_pool_hands_its_groups_back_bit_identically(self, fake_executor):
        executors: list[BreakingExecutor] = []

        class Recorded(BreakingExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                executors.append(self)

        fake_executor(Recorded)
        spec = _grid_spec("pool_broken")
        sequential = Study(spec).run(engine=_engine())
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool") as caught:
            pooled = Study(spec).run(engine=_engine(), cell_workers=2)
        assert len(_pool_warnings(caught)) == 1
        [executor] = executors
        first, broken, *queued = executor.futures
        assert first.done() and not first.cancelled()
        assert isinstance(broken.exception(), BrokenProcessPool)
        assert queued and all(future.cancelled() for future in queued)
        assert pool_module.fallbacks("cells") == 1
        assert pooled.to_json() == sequential.to_json()

    def test_failing_cell_keeps_other_groups_records_then_raises_noted(
        self, fake_executor, tmp_path
    ):
        fake_executor(InlineExecutor)
        study = Study({
            "scenario": _scenario("pool_cell_error"),
            "scheme": {"sweep": [{"kind": "pred_te"}, {"kind": "omniscient"}]},
            "max_intervals": 3,
        })
        # Failure cells need the batched protocol: streaming one is rejected
        # when the cell runs, i.e. inside the pool's job.
        study.add({
            "scenario": _scenario("pool_cell_error"),
            "scheme": {"kind": "dote", "epochs": 1, "history_len": 3, "seed": 0},
            "perturbation": {"kind": "failure", "num_failures": 1, "num_trials": 1},
            "streaming": True,
            "max_intervals": 3,
        })
        checkpoint = tmp_path / "cells.ckpt"
        with pytest.raises(ValueError, match="batched failure protocol") as excinfo:
            study.run(engine=_engine(), checkpoint=checkpoint, cell_workers=2)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any(note.startswith("raised by study cell 3/3") for note in notes)
        saved = StudyCheckpoint(checkpoint).load()
        assert sorted(record.scheme for record in saved) == sorted(
            record.scheme for record in Study(study.specs[:2]).run(engine=_engine())
        )
        assert pool_module.fallbacks("cells") == 0


def test_fan_out_yields_every_job_once_and_propagates_job_errors(fake_executor):
    fake_executor(InlineExecutor)
    results = dict(pool_module.fan_out(np.sqrt, [4.0, 9.0], 2, "test", "test batch"))
    assert results == {0: 2.0, 1: 3.0}

    def boom(job):
        raise LookupError(job)

    with pytest.raises(LookupError):
        list(pool_module.fan_out(boom, [1], 2, "test", "test batch"))
    assert pool_module.fallbacks("test") == 0
