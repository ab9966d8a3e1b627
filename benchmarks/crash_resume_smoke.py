"""Crash recovery through the CLI: interrupt a checkpointed grid, resume it.

    PYTHONPATH=src python benchmarks/crash_resume_smoke.py [WORKDIR]

Starts ``python -m repro.study spec.json --checkpoint smoke.ckpt``, sends it
SIGINT as soon as the checkpoint holds its first record, then re-runs the
same command with ``--resume --out``.  It proves:

1. the interrupt left a partial checkpoint (at least one record, fewer
   than the grid's six), so the resume has real work to do;
2. the resume finishes the grid: six records;
3. its ``--out`` file is byte-equal to an uninterrupted run's.

The interrupt waits for a record instead of a timer, so the check does not
depend on how fast the host trains.  A SIGINT that tears the record being
appended is legal too: the torn line is dropped and that cell re-runs.
The interrupted child installs Python's ``KeyboardInterrupt`` handler itself
and must die of the signal: a shell that starts this script as a background
job (``cmd &``) ignores SIGINT in it, the ignore is inherited through
``exec``, and Python then never installs that handler, so the child would
finish every cell.  The SIGINT is re-sent while the child runs on: one
raised inside a weakref callback or a finalizer is printed as "Exception
ignored" and dropped.
Every child pins BLAS to one thread, so both sides sum in one order.
``benchmarks/test_crash_resume_smoke.py`` runs this in tier-1.  Exit status 0
on success.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from repro.study import ResultSet, StudyCheckpoint

REPO = Path(__file__).resolve().parent.parent


def _scenario(name: str, seed: int) -> dict:
    return {
        "name": name,
        "topology": {"kind": "fully_connected", "num_nodes": 5, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "seed": seed, "num_intervals": 80},
        "history_len": 4,
    }


SPEC = {
    "scenario": {"sweep": [_scenario(f"smoke_{i}", i) for i in (1, 2, 3)]},
    "scheme": {"sweep": [
        {"kind": "figret", "epochs": 30, "history_len": 4, "robustness_weight": 0.1, "seed": 7},
        {"kind": "dote", "epochs": 30, "history_len": 4, "seed": 7},
    ]},
    "max_intervals": 10,
}
CELLS = 6

#: Seconds any one child may take before the smoke calls it hung.
CHILD_TIMEOUT_S = 120.0

#: Seconds between SIGINTs to a child that runs on, and how many it is sent.
SIGINT_EVERY_S = 0.25
MAX_SIGINTS = 40

#: ``python -m repro.study`` with the ``KeyboardInterrupt`` handler installed
#: even where the interpreter started with SIGINT ignored.
_INTERRUPTIBLE_STUDY = (
    "import runpy, signal; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "runpy.run_module('repro.study', run_name='__main__', alter_sys=True)"
)


def _environment() -> dict:
    src = str(REPO / "src")
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
        OPENBLAS_NUM_THREADS="1",
    )


def _study(workdir: Path, *args: str) -> None:
    done = subprocess.run(
        [sys.executable, "-m", "repro.study", "spec.json", *args],
        cwd=workdir,
        env=_environment(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    assert done.returncode == 0, (
        f"repro.study spec.json {' '.join(args)} exited {done.returncode}:\n{done.stderr}"
    )


def _saved(checkpoint: Path) -> int:
    """Records in the checkpoint now (a torn tail is dropped, never rewritten)."""
    if not checkpoint.exists():
        return 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return len(StudyCheckpoint(checkpoint).load())


def _interrupt_after_first_record(workdir: Path) -> int:
    checkpoint = workdir / "smoke.ckpt"
    child = subprocess.Popen(
        [
            sys.executable, "-c", _INTERRUPTIBLE_STUDY,
            "spec.json", "--checkpoint", checkpoint.name,
        ],
        cwd=workdir,
        env=_environment(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while child.poll() is None and _saved(checkpoint) == 0:
            if time.monotonic() > deadline:
                raise AssertionError("no checkpoint record within the child timeout")
            time.sleep(0.01)
        assert child.poll() is None, (
            f"the study exited ({child.returncode}) before it could be interrupted"
        )
        sent = 0
        while child.poll() is None and sent < MAX_SIGINTS:
            child.send_signal(signal.SIGINT)
            sent += 1
            try:
                child.wait(timeout=SIGINT_EVERY_S)
            except subprocess.TimeoutExpired:
                pass
        assert child.returncode == -signal.SIGINT, (
            f"the study {'ran on' if child.returncode is None else f'exited {child.returncode}'} "
            f"after {sent} SIGINTs instead of dying of one"
        )
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return _saved(checkpoint)


def main(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "spec.json").write_text(json.dumps(SPEC))
    saved = _interrupt_after_first_record(workdir)
    assert 1 <= saved < CELLS, f"the interrupted run left {saved} of {CELLS} records"
    _study(
        workdir, "--checkpoint", "smoke.ckpt", "--resume", "--out", "resumed.json",
    )
    results = ResultSet.load(workdir / "resumed.json")
    assert len(results) == CELLS, f"expected {CELLS} records, got {len(results)}"
    _study(workdir, "--out", "uninterrupted.json")
    assert (workdir / "resumed.json").read_bytes() == (
        workdir / "uninterrupted.json"
    ).read_bytes(), "the resumed --out differs from an uninterrupted run's"
    print(
        f"crash recovery OK: interrupted at {saved}/{CELLS} records; the "
        f"resume wrote {len(results)}, byte-equal to an uninterrupted run"
    )


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="crash-smoke-") as workdir:
            main(Path(workdir))
