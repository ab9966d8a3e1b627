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

A read never writes: a record another writer has only half appended must
survive a concurrent ``load()``, which drops it in memory and leaves the
file alone.  A second writer -- another store object or another process --
is refused with the store's error before it writes a byte, so it cannot
compact that half-appended record away either.

The same grid checks the other half of the held-descriptor contract: once
``Study.run`` / ``resume`` returns -- or stops on a cancel or a raising cell
-- no descriptor is left open on either store, and a pickled store carries
none.

A write that fails (a full disk, an I/O error) raises an ``OSError`` naming
the store's file, on a checkpoint, a warehouse and a persistent LP cache
alike; the file still loads every complete record and the next write
succeeds.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import OptimalMLUCache
from repro.study import ResultWarehouse, Study, StudyCancelled, StudyCheckpoint, StudyResult
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
    with pytest.raises(store_class._error, match="held by another process"):
        copy.append(record)  # a second writer on the path, refused
    store.close()
    copy.append(record)
    copy.close()
    store.append(record)
    assert len(store_class(store.path).load()) == 3
    store.close()
    assert store._fd is None


def record(scheme: str, notes: str = "") -> StudyResult:
    return StudyResult(
        scenario="mesh", scheme=scheme, experiment="replay",
        spec={"scheme": scheme, "notes": notes}, metrics={"mean": 1.25},
        series=np.array([1.0, 1.5]),
    )


@pytest.mark.parametrize("store_class", [StudyCheckpoint, ResultWarehouse])
def test_a_concurrent_read_never_destroys_a_record_being_written(tmp_path, store_class):
    writer = store_class(tmp_path / "store.jsonl")
    writer.append(record("A"))
    line = writer._line(record("B", notes="x" * 12_000)).encode("utf-8")
    assert len(line) > 12_000
    os.write(writer._fd, line[:4096])  # the writer is mid-append ...
    with pytest.warns(RuntimeWarning, match="partially written trailing record"):
        assert [r.scheme for r in store_class(writer.path).load()] == ["A"]
    os.write(writer._fd, line[4096:])  # ... and finishes after the read
    os.fsync(writer._fd)
    assert [r.scheme for r in store_class(writer.path).load()] == ["A", "B"]
    writer.append(record("C"))
    assert [r.scheme for r in store_class(writer.path).load()] == ["A", "B", "C"]
    writer.close()


@pytest.mark.parametrize("store_class", [StudyCheckpoint, ResultWarehouse])
def test_a_second_writer_is_refused_before_it_writes_a_byte(tmp_path, store_class):
    # Before the lock, the second store's tail probe saw the first store's
    # half-written record as a torn tail and rewrote the file without it;
    # the rest of that record then went to the replaced file, and a fresh
    # load returned records 1 and 3.
    first = store_class(tmp_path / "store.jsonl")
    first.append(record("1"))
    line = first._line(record("2", notes="x" * 12_000)).encode("utf-8")
    os.write(first._fd, line[:4096])  # the first writer is mid-append ...
    before = first.path.read_bytes()
    second = store_class(first.path)
    with pytest.raises(store_class._error, match="held by another process"):
        second.append(record("3"))
    assert first.path.read_bytes() == before and second._fd is None
    os.write(first._fd, line[4096:])  # ... and finishes its record
    os.fsync(first._fd)
    first.close()
    assert [r.scheme for r in store_class(first.path).load()] == ["1", "2"]


_SECOND_PROCESS = """
import sys
from repro.study import ResultWarehouse, WarehouseError
warehouse = ResultWarehouse(sys.argv[1])
try:
    warehouse.extend(warehouse.load())
except WarehouseError as exc:
    print(exc)
    sys.exit(3)
"""


def test_a_second_process_is_refused_on_a_held_warehouse(tmp_path):
    warehouse = ResultWarehouse(tmp_path / "wh.jsonl")
    warehouse.append(record("A"))
    before = warehouse.path.read_bytes()
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _SECOND_PROCESS, str(warehouse.path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert f"{warehouse.path} is held by another process" in done.stdout
    # The CLI makes it a usage error before any cell runs.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "perturbation": {"kind": "none"}}))
    done = subprocess.run(
        [sys.executable, "-m", "repro.study", str(spec), "--warehouse", str(warehouse.path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2 and "is held by another process" in done.stderr, done.stderr
    assert "Traceback" not in done.stderr
    assert warehouse.path.read_bytes() == before
    warehouse.append(record("B"))  # the holder goes on writing
    warehouse.close()
    # Released: the other process may write now.
    done = subprocess.run(
        [sys.executable, "-c", _SECOND_PROCESS, str(warehouse.path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert [r.scheme for r in ResultWarehouse(warehouse.path).load()] == ["A", "B", "A", "B"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child (POSIX only)")
def test_a_forked_child_keeps_no_copy_of_a_held_lock(tmp_path):
    # A flock belongs to the open file description, which a fork shares: an
    # LP pool worker forked while a store holds its file would otherwise keep
    # the lock after the parent released it.
    store = ResultWarehouse(tmp_path / "wh.jsonl")
    store.append(record("A"))
    (ready, forked), (done, finish) = os.pipe(), os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child only
        os.close(finish)
        os.write(forked, b"x")  # past the fork hooks
        os.read(done, 1)  # alive until the parent closes ``finish``
        os._exit(0)
    os.close(forked)
    os.close(done)
    try:
        os.read(ready, 1)
        store.close()
        ResultWarehouse(store.path).append(record("B"))
    finally:
        os.close(finish)
        os.close(ready)
        os.waitpid(pid, 0)
    assert [r.scheme for r in ResultWarehouse(store.path).load()] == ["A", "B"]


class _Records:
    """Appends numbered records to a checkpoint or warehouse; counts what loads."""

    def __init__(self, store_class, path):
        self.store = store_class(path)

    def write(self, number: int) -> None:
        self.store.append(record(f"S{number}"))

    def loaded(self) -> int:
        return len(type(self.store)(self.store.path).load()) if self.store.exists() else 0

    def close(self) -> None:
        self.store.close()


class _Normalisers:
    """Stores numbered entries in a persistent LP cache; counts what loads."""

    def __init__(self, path):
        self.cache = OptimalMLUCache(path=path)

    def write(self, number: int) -> None:
        self.cache._store([(("fp", f"demand{number}", ""), float(number))])

    def loaded(self) -> int:
        return OptimalMLUCache(path=self.cache.path).loaded

    def close(self) -> None:
        self.cache.close()


STORES = {
    "checkpoint": lambda path: _Records(StudyCheckpoint, path),
    "warehouse": lambda path: _Records(ResultWarehouse, path),
    "lp-cache": _Normalisers,
}


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize(
    "call, error, written, kept",
    [
        # An append's write, half of it landed: the torn record is dropped.
        ("write", errno.ENOSPC, 2, 2),
        # An append's fsync: the record's bytes are in the file.
        ("fsync", errno.EIO, 2, 3),
        # The temp file of the first, whole-file write: no store file yet.
        ("fsync", errno.ENOSPC, 0, 0),
    ],
)
def test_a_failed_write_names_its_file_and_the_next_write_succeeds(
    tmp_path, monkeypatch, kind, call, error, written, kept
):
    store = STORES[kind](tmp_path / "store.jsonl")
    for number in range(written):
        store.write(number)
    real = getattr(os, call)

    def failing(fd, *args):
        if call == "write":
            real(fd, bytes(args[0])[: len(args[0]) // 2])
        raise OSError(error, os.strerror(error))

    with monkeypatch.context() as patched:
        patched.setattr(f"repro.store.os.{call}", failing)
        with pytest.raises(OSError, match=re.escape(str(tmp_path / "store.jsonl"))) as raised:
            store.write(written)
    assert raised.value.errno == error
    with warnings.catch_warnings():
        # The half-written record is a torn tail, dropped with a warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        assert store.loaded() == kept
        store.write(written + 1)
        assert store.loaded() == kept + 1
    store.close()
