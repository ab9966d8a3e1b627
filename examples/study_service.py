"""The study service: a warm daemon serving studies to many clients.

Run with::

    python examples/study_service.py

Every ``python -m repro.study`` invocation pays full startup: a cold LP
cache, rebuilt scenarios, retrained schemes.  The study service moves the
runner into a long-lived daemon instead -- a Unix socket, a FIFO job queue,
and one process-wide warm LP cache + scenario cache + trained-scheme store
shared by every job any client submits.  This example boots the daemon
in-process, then plays three tenants against it:

1. the first client pays the cold cost for a small perturbation grid;
2. a second client submits a *superset* grid and only pays for the new
   cells -- the overlap is served from warm state;
3. a third client re-submits the same grid and gets bit-identical records
   for free: zero LP solves, zero trainings.

In production the daemon runs standalone and clients attach from other
processes -- the shell equivalent of this script::

    python -m repro.study serve  --socket /tmp/repro.sock &
    python -m repro.study submit grid.json --socket /tmp/repro.sock
    python -m repro.study status --socket /tmp/repro.sock
    python -m repro.study cancel job-0001 --socket /tmp/repro.sock

``submit --checkpoint NAME`` makes a job cancellable mid-grid and
resumable (``submit --resume``) -- even across a daemon restart, since
checkpoints live in the daemon's spool directory.
"""

from __future__ import annotations

import json
import tempfile
import threading
from pathlib import Path

from repro.study import StudyClient, StudyServer

BASE_GRID = {
    "scenario": {
        "name": "service-demo",
        "topology": {"kind": "fully_connected", "num_nodes": 5, "capacity": 40.0},
        "traffic": {"kind": "datacenter", "level": "pod", "num_intervals": 40},
        "history_len": 4,
    },
    "scheme": {"kind": "figret", "epochs": 8, "history_len": 4,
               "robustness_weight": 0.1, "seed": 0},
    "perturbation": {"sweep": [{"kind": "none"}, {"kind": "fluctuation", "alpha": 1.0}]},
    "max_intervals": 10,
}

SUPERSET_GRID = {
    **BASE_GRID,
    "perturbation": {
        "sweep": BASE_GRID["perturbation"]["sweep"]
        + [{"kind": "fluctuation", "alpha": 2.0}]
    },
}


def main() -> None:
    # AF_UNIX socket paths are short (~107 bytes), so use a short temp dir.
    root = Path(tempfile.mkdtemp(prefix="repro-svc-"))
    server = StudyServer(root / "demo.sock")
    ready = threading.Event()
    threading.Thread(target=server.serve_forever, kwargs={"ready": ready},
                     daemon=True).start()
    ready.wait(10)
    print(f"daemon up on {server.socket_path}\n")

    # --- tenant 1: pays the cold cost ---------------------------------- #
    first = StudyClient(server.socket_path).submit(BASE_GRID)
    print(f"tenant 1 ({first.job}): {len(first.results)} cells, "
          f"{first.summary['lp_solves']} LP solves, "
          f"{first.summary['trainings']} training")

    # --- tenant 2: superset grid, pays only for the new cells ---------- #
    second = StudyClient(server.socket_path).submit(SUPERSET_GRID)
    print(f"tenant 2 ({second.job}): {len(second.results)} cells, "
          f"{second.summary['lp_solves']} LP solves (only the new cells), "
          f"{second.summary['trainings']} trainings")
    assert second.summary["trainings"] == 0

    # --- tenant 3: identical grid, fully served from warm state -------- #
    third = StudyClient(server.socket_path).submit(SUPERSET_GRID)
    print(f"tenant 3 ({third.job}): {len(third.results)} cells, "
          f"{third.summary['lp_solves']} LP solves, "
          f"{third.summary['trainings']} trainings -- free")
    assert third.summary["lp_solves"] == 0 and third.summary["trainings"] == 0
    identical = json.dumps(
        [r.to_dict() for r in third.results], sort_keys=True
    ) == json.dumps(
        [r.to_dict() for r in second.results], sort_keys=True
    )
    print(f"tenant 3 records bit-identical to tenant 2's: {identical}")
    assert identical

    status = StudyClient(server.socket_path).status()
    warm = status["warm"]
    print(f"\nwarm state after 3 tenants: {warm['lp_cache_entries']} LP cache "
          f"entries, {warm['trained_schemes']} trained scheme(s), "
          f"{warm['memoised_replays']} memoised replay(s), "
          f"{warm['scenarios']} scenario(s)")
    print(third.results.to_table(title="Shared grid (as tenant 3 received it)"))

    StudyClient(server.socket_path).shutdown()
    print("\ndaemon stopped")


if __name__ == "__main__":
    main()
