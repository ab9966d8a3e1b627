"""The one process pool: who may open one, and what a fallback does.

LP batches fan out through :mod:`repro.pool`: its executors, its width rule
and its one fallback path.  These tests drive that path with in-process fake
executors (fast and deterministic): an executor whose construction is
denied, one whose pool breaks under a running job, and one that runs every
job inline.  A fallback runs the jobs the pool did not finish in-process:
the results are those of a sequential run, the counter goes up on every
call, a warning fires on the first one only, and the next call tries a
fresh pool.
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
from repro.solvers import lp as lp_module
from repro.solvers.lp import OptimalMLUCache, solve_mlu_lp_batch


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
    monkeypatch.setattr(pool_module, "_FALLBACKS", 0)
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

    error: BaseException = BrokenProcessPool("a worker died abruptly")

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.futures: list[Future] = []

    def submit(self, fn, job):
        if not self.futures:
            future = super().submit(fn, job)
        else:
            future = Future()
            if len(self.futures) == 1:
                future.set_exception(self.error)
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


def test_a_denied_pool_is_retried_on_every_call_and_warns_once(
    fake_executor, mesh4_paths, rng
):
    fake_executor(SpawnDenied).attempts = 0
    demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
    sequential = solve_mlu_lp_batch(mesh4_paths, demands, workers=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in range(1, 4):
            pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
            assert SpawnDenied.attempts == call
            assert pool_module.fallbacks() == call
            assert pooled.tobytes() == sequential.tobytes()
    [warning] = _pool_warnings(caught)
    message = str(warning.message)
    assert "process-pool LP batch failed" in message
    assert "next call tries a fresh pool" in message
    assert "from now on" not in message


def test_broken_pool_hands_its_chunks_back_bit_identically(fake_executor, mesh4_paths, rng):
    executors: list[BreakingExecutor] = []

    class Recorded(BreakingExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            executors.append(self)

    fake_executor(Recorded)
    demands = rng.random((8, mesh4_paths.num_sd_pairs)) + 0.1
    sequential = solve_mlu_lp_batch(mesh4_paths, demands, workers=1)
    with pytest.warns(RuntimeWarning, match="BrokenProcessPool") as caught:
        pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=4)
    assert len(_pool_warnings(caught)) == 1
    [executor] = executors
    first, broken, *queued = executor.futures
    assert first.done() and not first.cancelled()
    assert isinstance(broken.exception(), BrokenProcessPool)
    assert len(queued) == 2 and all(future.cancelled() for future in queued)
    assert pool_module.fallbacks() == 1
    assert pooled.tobytes() == sequential.tobytes()


def test_explicit_width_one_never_opens_a_pool(monkeypatch, mesh4_paths, rng):
    def no_pool(workers):
        raise AssertionError(f"LP pool of width {workers} opened under an explicit 1")

    monkeypatch.setattr(pool_module, "_pool", no_pool)
    demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
    engine = EvaluationEngine(cache=OptimalMLUCache(workers=1))
    assert engine.optimal_mlus(mesh4_paths, demands).shape == (4,)


def test_fan_out_returns_results_in_job_order_and_propagates_job_errors(fake_executor):
    fake_executor(InlineExecutor)
    assert pool_module.fan_out(np.sqrt, [4.0, 9.0], 2) == [2.0, 3.0]

    def boom(job):
        raise LookupError(job)

    with pytest.raises(LookupError):
        pool_module.fan_out(boom, [1], 2)
    assert pool_module.fallbacks() == 0


@pytest.mark.parametrize("error", pool_module.POOL_ERRORS, ids=lambda error: error.__name__)
def test_each_pool_error_at_construction_runs_the_batch_in_process(
    fake_executor, mesh4_paths, rng, error
):
    class Denied:
        def __init__(self, max_workers):
            raise error("the pool cannot start")

    fake_executor(Denied)
    demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
    sequential = solve_mlu_lp_batch(mesh4_paths, demands, workers=1)
    with pytest.warns(RuntimeWarning, match=error.__name__):
        pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
    assert pool_module.fallbacks() == 1
    assert pooled.tobytes() == sequential.tobytes()


@pytest.mark.parametrize("error", pool_module.POOL_ERRORS, ids=lambda error: error.__name__)
def test_each_pool_error_under_a_job_hands_the_lost_chunks_back(
    fake_executor, mesh4_paths, rng, error
):
    executors: list[BreakingExecutor] = []

    class Recorded(BreakingExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.error = error("the result did not come back")
            executors.append(self)

    fake_executor(Recorded)
    demands = rng.random((6, mesh4_paths.num_sd_pairs)) + 0.1
    sequential = solve_mlu_lp_batch(mesh4_paths, demands, workers=1)
    with pytest.warns(RuntimeWarning, match=error.__name__):
        pooled = solve_mlu_lp_batch(mesh4_paths, demands, workers=3)
    [executor] = executors
    assert [future.cancelled() for future in executor.futures] == [False, False, True]
    assert pool_module.fallbacks() == 1
    assert pooled.tobytes() == sequential.tobytes()


def test_the_call_after_a_broken_pool_opens_a_fresh_one(fake_executor, mesh4_paths, rng):
    built: list[type] = []

    class BreaksOnce(BreakingExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            built.append(type(self))
            fake_executor(InlineExecutor)  # whatever opens next works

    fake_executor(BreaksOnce)
    demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
    sequential = solve_mlu_lp_batch(mesh4_paths, demands, workers=1)
    with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
        first = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
    assert built == [BreaksOnce] and pool_module._POOL_CACHE == {}
    second = solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
    assert isinstance(pool_module._POOL_CACHE[2], InlineExecutor)
    assert pool_module.fallbacks() == 1
    assert first.tobytes() == second.tobytes() == sequential.tobytes()


def test_a_chunk_that_fails_raises_and_is_not_a_fallback(
    fake_executor, monkeypatch, mesh4_paths, rng
):
    fake_executor(InlineExecutor)

    def failing_chunk(job):
        raise LookupError("the chunk failed")

    monkeypatch.setattr(lp_module, "_solve_batch_chunk", failing_chunk)
    demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LookupError, match="the chunk failed"):
            solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
    assert pool_module.fallbacks() == 0


def test_a_chunk_error_that_looks_like_a_pool_error_raises_again_in_process(
    fake_executor, monkeypatch, mesh4_paths, rng
):
    # A TypeError may be a job that did not pickle, so the pool's run counts
    # as a fallback; the in-process run then raises the genuine error.
    fake_executor(InlineExecutor)
    calls = []

    def failing_chunk(job):
        calls.append(job)
        raise TypeError("the chunk failed")

    monkeypatch.setattr(lp_module, "_solve_batch_chunk", failing_chunk)
    demands = rng.random((4, mesh4_paths.num_sd_pairs)) + 0.1
    with pytest.warns(RuntimeWarning, match="process-pool LP batch failed"):
        with pytest.raises(TypeError, match="the chunk failed"):
            solve_mlu_lp_batch(mesh4_paths, demands, workers=2)
    assert pool_module.fallbacks() == 1
    assert len(calls) == 3  # both chunks in the pool, the first again in-process
