"""SIGKILL at every durable boundary of a checkpointed, warehoused study.

A dry run of a small grid counts the durable calls the stores make
(``os.write`` / ``os.fsync`` / ``os.replace``, through the same spy point as
``tests/test_store.py``).  Then, for every boundary ``k``, a forked child
runs the same grid from scratch and SIGKILLs itself just before call ``k``;
an ``os.write`` boundary also gets a child that writes the first half of its
bytes and dies, leaving a torn line.  The parent resumes each child's
checkpoint with the warehouse attached and requires the uninterrupted run's
``to_json()`` and a warehouse holding every cell's provenance exactly once.

The grid is four cells on an inline 5-node scenario with a scheme trained
once up front (shared ``scheme_cache``), so a child does no training.

The same grid checks the other half of the held-descriptor contract: once
``Study.run`` / ``resume`` returns -- or stops on a cancel or a raising cell
-- no descriptor is left open on either store, and a pickled store carries
none.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import warnings
from collections import Counter

import pytest

from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import OptimalMLUCache
from repro.study import ResultWarehouse, Study, StudyCancelled, StudyCheckpoint
from repro.study.spec import _SCHEME_BUILDERS, canonical_json, register_scheme

SPEC = {
    "scenario": {
        "name": "faults_mesh5",
        "topology": {"kind": "fully_connected", "num_nodes": 5, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "seed": 4, "num_intervals": 30},
        "history_len": 3,
    },
    "scheme": {"kind": "figret", "epochs": 1, "history_len": 3,
               "normalize_by_optimal": False, "seed": 0},
    "perturbation": {"sweep": [
        {"kind": "none"},
        {"kind": "fluctuation", "alpha": 0.5, "seed": 1},
        {"kind": "fluctuation", "alpha": 1.0, "seed": 2},
        {"kind": "failure", "num_failures": 1, "num_trials": 1},
    ]},
    "max_intervals": 4,
}

#: Seconds a child may take before the test calls it hung.
CHILD_TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def warm():
    """One engine and one set of trained schemes shared by every run."""
    engine = EvaluationEngine(cache=OptimalMLUCache(workers=1))
    caches = {"scheme_cache": {}, "scenario_cache": {}}
    study = Study(SPEC, **caches)
    study.trained_scheme(study.specs[0], engine)
    return engine, caches


def _spy(monkeypatch, on_call):
    """Route every ``os.write`` / ``os.fsync`` / ``os.replace`` via ``on_call``."""
    for name in ("write", "fsync", "replace"):
        real = getattr(os, name)
        monkeypatch.setattr(
            os, name, lambda *args, _name=name, _real=real: on_call(_name, _real, args)
        )


def _run(warm, directory):
    engine, caches = warm
    return Study(SPEC, **caches).run(
        engine=engine,
        checkpoint=directory / "grid.ckpt",
        warehouse=directory / "grid.wh.jsonl",
    )


def _run_child_until(warm, directory, boundary: int, torn: bool) -> None:
    """Fork a child that runs the grid and is SIGKILLed at call ``boundary``."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child only
        try:
            calls = 0

            def on_call(name, real, args):
                nonlocal calls
                if calls == boundary:
                    if torn:
                        fd, data = args
                        real(fd, bytes(data)[: len(data) // 2])
                    os.kill(os.getpid(), signal.SIGKILL)
                calls += 1
                return real(*args)

            with pytest.MonkeyPatch.context() as monkeypatch:
                _spy(monkeypatch, on_call)
                _run(warm, directory)
        finally:
            os._exit(0)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"child killed at boundary {boundary} hung")
        time.sleep(0.002)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, (
        f"child never reached boundary {boundary}"
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="kills forked children (POSIX only)")
def test_resume_after_sigkill_at_every_durable_boundary(tmp_path, monkeypatch, warm):
    calls: list[str] = []

    def count(name, real, args):
        calls.append(name)
        return real(*args)

    with monkeypatch.context() as spying:
        _spy(spying, count)
        reference = _run(warm, tmp_path / "dry")
    expected = Counter(canonical_json(record.spec) for record in reference)
    assert len(expected) == len(reference) == 4
    # Two store creations, then per cell a checkpoint and a warehouse append.
    assert calls.count("replace") >= 2 and calls.count("fsync") >= 2 + 2 * len(reference)

    boundaries = [(k, False) for k in range(len(calls))]
    boundaries += [(k, True) for k, name in enumerate(calls) if name == "write"]
    engine, caches = warm
    for k, torn in boundaries:
        directory = tmp_path / f"kill{k}{'torn' if torn else ''}"
        directory.mkdir()
        _run_child_until(warm, directory, k, torn)
        with warnings.catch_warnings():
            # A torn trailing record is dropped with a RuntimeWarning.
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = Study(SPEC, **caches).resume(
                directory / "grid.ckpt",
                engine=engine,
                warehouse=directory / "grid.wh.jsonl",
            )
            warehoused = ResultWarehouse(directory / "grid.wh.jsonl").load()
        where = f"SIGKILL before durable call {k} ({calls[k]}{', torn' if torn else ''})"
        assert resumed.to_json() == reference.to_json(), where
        assert Counter(canonical_json(r.spec) for r in warehoused) == expected, where


def _descriptors_on(*paths) -> int:
    """How many of this process's descriptors are open on ``paths``."""
    targets = {str(path.resolve()) for path in paths}
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") in targets
        except OSError:  # the descriptor listdir itself used, now closed
            pass
    return count


@pytest.fixture
def failing_scheme():
    """A registered scheme kind whose builder raises: a cell that fails."""

    @register_scheme("fd_leak_boom")
    def _build(path_set, *, cache=None, **params):
        raise RuntimeError("injected cell failure")

    yield {"kind": "fd_leak_boom"}
    _SCHEME_BUILDERS.pop("fd_leak_boom", None)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/self/fd (Linux only)")
def test_no_descriptor_outlives_a_run_resume_cancel_or_failure(tmp_path, warm, failing_scheme):
    engine, caches = warm
    checkpoint, warehouse = tmp_path / "grid.ckpt", tmp_path / "grid.wh.jsonl"
    held_during_run: list[int] = []

    def on_cell(index, record):
        held_during_run.append(_descriptors_on(checkpoint, warehouse))

    study = Study(SPEC, **caches)
    plan = study.plan(engine=engine, checkpoint=checkpoint, warehouse=warehouse)
    study.execute(plan, on_cell=on_cell)
    assert held_during_run == [2] * len(study)  # the stores do hold one each
    assert _descriptors_on(checkpoint, warehouse) == 0

    polls = iter(range(len(study)))
    cancelled = tmp_path / "cancelled.ckpt"
    plan = study.plan(engine=engine, checkpoint=cancelled, warehouse=warehouse)
    with pytest.raises(StudyCancelled):
        study.execute(plan, should_stop=lambda: next(polls) == 2)
    assert len(StudyCheckpoint(cancelled).load()) == 2
    assert _descriptors_on(cancelled, warehouse) == 0

    # The resume appends the two cells the cancel left.
    Study(SPEC, **caches).resume(cancelled, engine=engine, warehouse=warehouse)
    assert len(StudyCheckpoint(cancelled).load()) == len(study)
    assert _descriptors_on(cancelled, warehouse) == 0

    failing = tmp_path / "failing.ckpt"
    spec = {**SPEC, "scheme": {"sweep": [SPEC["scheme"], failing_scheme]}}
    with pytest.raises(RuntimeError, match="injected cell failure"):
        Study(spec, **caches).run(engine=engine, checkpoint=failing, warehouse=warehouse)
    assert len(StudyCheckpoint(failing).load()) == len(study)
    assert _descriptors_on(failing, warehouse) == 0


@pytest.mark.parametrize("store_class", [StudyCheckpoint, ResultWarehouse])
def test_a_pickled_store_carries_no_descriptor(tmp_path, warm, store_class):
    engine, caches = warm
    record = Study(SPEC, **caches).run(engine=engine)[0]
    store = store_class(tmp_path / "store.jsonl")
    store.append(record)
    copy = pickle.loads(pickle.dumps(store))
    assert copy._fd is None and store._fd is not None
    copy.append(record)
    store.append(record)
    assert len(store_class(store.path).load()) == 3
    for held in (store, copy):
        held.close()
    assert store._fd is None
