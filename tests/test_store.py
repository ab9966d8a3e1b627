"""The one durable writer: what reaches the disk, and who may call it.

Every whole-file write of the package (a fresh normaliser cache, a store's
compaction, a saved result set) must fsync the temp file before the
``os.replace`` and the directory after it, or a crash can leave an empty
file or roll the rename back.  The first append after a store is (re)opened
is one file fsync plus one directory fsync; every later append through the
held descriptor is one file fsync only -- the warm study path pays it per
record.  A file rewritten, deleted or appended to behind the store's back
sends the next append down the first-append path again, so it lands in the
file at ``path``, never on a torn line.  And only ``repro/store.py`` may call
``os.replace`` / ``os.fsync``, so there is one writer to harden.
"""

from __future__ import annotations

import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.solvers.lp import OptimalMLUCache
from repro.study import ResultSet, ResultWarehouse, StudyCheckpoint, StudyResult


def _record(scheme: str = "FIGRET") -> StudyResult:
    return StudyResult(
        scenario="mesh",
        scheme=scheme,
        experiment="replay",
        spec={"scheme": scheme},
        metrics={"mean": 1.25},
        series=np.array([1.0, 1.5]),
    )


@pytest.fixture()
def durable_calls(monkeypatch):
    """Record every ``os.fsync`` (of a file or a directory) and ``os.replace``."""
    calls: list[str] = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    def spy_replace(src, dst):
        calls.append("replace")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    return calls


def _cache_first_write_on_a_new_file(tmp_path):
    cache = OptimalMLUCache(path=tmp_path / "cache.jsonl")
    return lambda: cache._store([(("fp", "demand", ""), 1.5)])


def _store_compaction(tmp_path):
    store = StudyCheckpoint(tmp_path / "run.ckpt")
    store.append(_record())
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write('{"scenario": "half-writ')

    def compact():
        # Reads never write: the compaction is the tail probe the next
        # append runs before it opens its descriptor.
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            store._open_for_append()
        store.close()
        assert len(store.load()) == 1

    return compact


def _resultset_save(tmp_path):
    return lambda: ResultSet([_record()]).save(tmp_path / "results.json")


@pytest.mark.parametrize(
    "prepare", [_cache_first_write_on_a_new_file, _store_compaction, _resultset_save]
)
def test_whole_file_writes_fsync_the_temp_file_and_the_directory(
    tmp_path, durable_calls, prepare
):
    write = prepare(tmp_path)
    durable_calls.clear()
    write()
    assert durable_calls == ["fsync file", "replace", "fsync dir"]


@pytest.mark.parametrize("store_class", [StudyCheckpoint, ResultWarehouse])
def test_append_is_one_file_fsync_and_one_directory_fsync(
    tmp_path, durable_calls, store_class
):
    store = store_class(tmp_path / "store.jsonl")
    store.create()
    durable_calls.clear()
    store.append(_record())
    assert durable_calls == ["fsync file", "fsync dir"]
    durable_calls.clear()
    store.extend([_record("A"), _record("B")])
    store.append(_record("C"))
    assert durable_calls == ["fsync file"] * 2
    assert [r.scheme for r in store.load()] == ["FIGRET", "A", "B", "C"]
    store.close()


def _rewritten_by_a_foreign_writer(store):
    # Another program replaces the file; the store's lock stays on the old one.
    temp = store.path.with_name("foreign.tmp")
    temp.write_text(store.path.read_text() + store._line(_record("other")))
    os.replace(temp, store.path)
    return ["FIGRET", "other", "next"], ["fsync file", "fsync dir"]


def _deleted(store):
    store.path.unlink()
    # The header is written atomically before the append.
    return ["next"], ["fsync file", "replace", "fsync dir", "fsync file", "fsync dir"]


def _appended_by_a_foreign_writer(store):
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write(store._line(_record("other")))
    return ["FIGRET", "other", "next"], ["fsync file", "fsync dir"]


def _torn_line_from_a_foreign_writer(store):
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write('{"scenario": "half-writ')
    # Compacted first, exactly as without a held descriptor: the tail probe
    # rewrites the file from what load() reads of it (torn line dropped).
    return ["FIGRET", "next"], [
        "fsync file", "replace", "fsync dir", "fsync file", "fsync dir"
    ]


@pytest.mark.parametrize("store_class", [StudyCheckpoint, ResultWarehouse])
@pytest.mark.parametrize(
    "interfere",
    [
        _rewritten_by_a_foreign_writer,
        _deleted,
        _appended_by_a_foreign_writer,
        _torn_line_from_a_foreign_writer,
    ],
)
def test_append_reopens_a_file_changed_behind_the_held_descriptor(
    tmp_path, durable_calls, store_class, interfere
):
    store = store_class(tmp_path / "store.jsonl")
    store.append(_record())
    expected_schemes, expected_calls = interfere(store)
    durable_calls.clear()
    if interfere is _torn_line_from_a_foreign_writer:
        with pytest.warns(RuntimeWarning, match="partially written trailing record"):
            store.append(_record("next"))
    else:
        store.append(_record("next"))
    assert durable_calls == expected_calls
    durable_calls.clear()
    store.append(_record("last"))
    assert durable_calls == ["fsync file"]
    assert [r.scheme for r in store_class(store.path).load()] == [*expected_schemes, "last"]
    store.close()


def test_create_keeps_an_existing_store(tmp_path):
    store = StudyCheckpoint(tmp_path / "run.ckpt")
    store.append(_record())
    store.create()
    assert len(store.load()) == 1


def test_only_the_store_module_replaces_or_fsyncs():
    src = Path(repro.__file__).parent
    pattern = re.compile(r"os\.(replace|fsync)\(")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "store.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == [], "durable writes belong in repro/store.py"
