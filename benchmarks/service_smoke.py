"""CI smoke for the study service: warm-state, SIGTERM, and resume, for real.

Unlike the in-process tests in ``tests/test_study_service.py``, this script
exercises the daemon exactly as an operator would: a real ``python -m
repro.study serve`` subprocess on a real Unix socket, real concurrent
clients, a real ``SIGTERM``.  It proves, in order:

1. **Cross-client warm state** -- two *overlapping* studies submitted
   concurrently from two clients share one scheme training between them,
   and a third client re-submitting one of the grids afterwards gets
   bit-identical records with **zero** additional LP solves and trainings.
2. **SIGTERM mid-job is a checkpointed cancel** -- the daemon receiving
   SIGTERM while a checkpointed grid runs stops it at the next cell
   boundary (the client sees a clean ``cancelled`` terminal or, at worst,
   a dropped stream), exits 0, and removes its socket file.
3. **Resume completes the grid** -- a restarted daemon (cold caches!)
   accepts ``resume`` for the same checkpoint name and finishes exactly
   the missing cells; the full record set matches a direct in-process run
   bit-for-bit.  After a restart the LP cache is cold, so this leg asserts
   completeness + bit-identity, not zero solves.

Exit status 0 on success; any assertion failure (or daemon misbehaviour)
is fatal.  Runs on a bare CI runner in well under a minute.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.study import Study, StudyClient, StudyServiceError

BASE_SPEC = {
    "scenario": {
        "name": "service-smoke",
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "seed": 7,
                    "num_intervals": 30},
        "history_len": 3,
    },
    "scheme": {"kind": "figret", "epochs": 2, "history_len": 3, "seed": 0},
    "perturbation": {"sweep": [{"kind": "none"}, {"kind": "fluctuation", "alpha": 1.0}]},
    "max_intervals": 8,
}

#: Superset grid: the same two cells plus two more perturbation levels.
SUPERSET_SPEC = {
    **BASE_SPEC,
    "perturbation": {
        "sweep": BASE_SPEC["perturbation"]["sweep"]
        + [{"kind": "fluctuation", "alpha": 2.0}, {"kind": "fluctuation", "alpha": 3.0}]
    },
}

#: The grid SIGTERM interrupts: enough cells (and training epochs) that the
#: signal reliably lands mid-job even on a fast runner.
KILL_SPEC = {
    **BASE_SPEC,
    "scheme": {"kind": "figret", "epochs": 40, "history_len": 3, "seed": 0},
    "perturbation": {
        "sweep": [{"kind": "none"}]
        + [{"kind": "fluctuation", "alpha": 0.5 + 0.25 * step} for step in range(11)]
    },
}


def wire(results) -> str:
    return json.dumps(
        [record.to_dict(include_series=True) for record in results], sort_keys=True
    )


def start_daemon(socket_path: Path, spool_dir: Path) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.study", "serve",
         "--socket", str(socket_path), "--spool-dir", str(spool_dir)],
        # Prepended, not replaced: benchmarks/unreached.py profiles the daemon
        # through a sitecustomize directory on the caller's PYTHONPATH.
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(["src", *filter(None, [os.environ.get("PYTHONPATH")])]),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    StudyClient.wait_until_ready(socket_path, timeout=60)
    return process


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    socket_path = root / "smoke.sock"
    spool_dir = root / "spool"

    print("== leg 1: cross-client warm state ==")
    daemon = start_daemon(socket_path, spool_dir)
    outcomes: dict[str, object] = {}

    def submit(tag: str, spec: dict) -> None:
        outcomes[tag] = StudyClient(socket_path).submit(spec)

    threads = [
        threading.Thread(target=submit, args=("base", BASE_SPEC)),
        threading.Thread(target=submit, args=("superset", SUPERSET_SPEC)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    base, superset = outcomes["base"], outcomes["superset"]
    assert base.status == "done" and len(base.results) == 2, base.summary
    assert superset.status == "done" and len(superset.results) == 4, superset.summary
    trainings = base.summary["trainings"] + superset.summary["trainings"]
    assert trainings == 1, (
        f"overlapping concurrent jobs trained {trainings}x; the shared "
        "trained-scheme store should train exactly once"
    )
    print(f"  concurrent overlap: {base.summary['lp_solves']} + "
          f"{superset.summary['lp_solves']} LP solves, {trainings} training")

    rerun = StudyClient(socket_path).submit(SUPERSET_SPEC)
    assert rerun.summary["lp_solves"] == 0, (
        f"identical re-submit from a new client did {rerun.summary['lp_solves']} "
        "LP solves; the daemon's warm cache should serve all of them"
    )
    assert rerun.summary["trainings"] == 0, rerun.summary
    assert wire(rerun.results) == wire(superset.results), (
        "re-submitted grid records are not bit-identical to the first run's"
    )
    print(f"  re-submit: 0 LP solves, 0 trainings, "
          f"{len(rerun.results)} bit-identical records")

    print("== leg 2: SIGTERM mid-job is a checkpointed cancel ==")
    kill_outcome: dict[str, object] = {}

    def submit_kill_job() -> None:
        try:
            kill_outcome["outcome"] = StudyClient(socket_path).submit(
                KILL_SPEC, checkpoint="sigterm-job", on_message=on_message
            )
        except StudyServiceError as exc:
            # The stream can drop before the terminal message if the daemon
            # exits first; the checkpoint on disk is what leg 3 verifies.
            kill_outcome["error"] = str(exc)

    first_record = threading.Event()

    def on_message(message: dict) -> None:
        if message.get("type") == "record":
            first_record.set()

    submitter = threading.Thread(target=submit_kill_job)
    submitter.start()
    assert first_record.wait(timeout=300), "no record arrived before the kill"
    daemon.send_signal(signal.SIGTERM)
    output, _ = daemon.communicate(timeout=120)
    submitter.join(timeout=120)
    assert daemon.returncode == 0, (
        f"daemon exited {daemon.returncode} on SIGTERM:\n{output}"
    )
    assert not socket_path.exists(), "daemon left its socket file behind"
    outcome = kill_outcome.get("outcome")
    if outcome is not None:
        assert outcome.status == "cancelled", outcome.summary
        print(f"  cancelled cleanly after "
              f"{outcome.summary['completed']}/{outcome.summary['total']} cells")
    else:
        print(f"  stream dropped at daemon exit ({kill_outcome['error']})")
    checkpointed = spool_dir / "sigterm-job"
    assert checkpointed.exists(), "no checkpoint survived the SIGTERM"

    print("== leg 3: restarted daemon resumes the grid ==")
    daemon = start_daemon(socket_path, spool_dir)
    resumed = StudyClient(socket_path).submit(
        KILL_SPEC, checkpoint="sigterm-job", resume=True
    )
    total = len(KILL_SPEC["perturbation"]["sweep"])
    assert resumed.status == "done" and len(resumed.results) == total, resumed.summary
    direct = Study(KILL_SPEC).run()
    assert wire(resumed.results) == wire(direct), (
        "resumed record set differs from a direct in-process run"
    )
    print(f"  resume completed {total} cells, bit-identical to a direct run "
          f"({resumed.summary['lp_solves']} LP solves after the cold restart)")

    StudyClient(socket_path).shutdown()
    daemon.wait(timeout=120)
    print("service smoke: all legs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
