"""The study service: a long-lived daemon + FIFO job queue over :class:`Study`.

Every ``python -m repro.study`` invocation pays full process startup: a cold
LP cache, re-built scenarios, re-trained schemes.  :class:`StudyServer` makes
the *runner* persistent instead -- one daemon process listening on a local
Unix socket, accepting study specs and suite descriptors as newline-delimited
JSON, running them through a FIFO job queue, and keeping one warm process-wide
:class:`~repro.solvers.lp.OptimalMLUCache`, scenario cache, and
trained-scheme store across *all* submitted jobs.  A second client submitting
an overlapping grid triggers zero repeat LP solves and zero repeat trainings
-- the "many tenants, shared warm state" shape the ROADMAP's north star asks
for.

Protocol (one request per connection, every message one JSON object per
line):

* ``{"op": "submit", "spec": {...}}`` -- expand the document (a study spec
  or a suite descriptor; :class:`~repro.study.study.Study` tells them apart
  by their keys) and enqueue it.  Optional keys: ``"checkpoint"`` (a name
  resolved under the server's spool directory, making the job cancellable
  *and* resumable), ``"resume"`` (re-submit of a cancelled/killed
  checkpointed job: finished cells load from disk), ``"warehouse"`` (the
  path string records are appended to; defaults to the server's
  ``--warehouse``).  Any other key is a structured error.  The reply is
  one ``accepted`` message, then one ``record`` message per finished cell
  as it checkpoints -- the record payload is exactly the
  :class:`~repro.study.results.StudyCheckpoint` wire format
  (:meth:`~repro.study.results.StudyResult.to_dict`) -- then one terminal
  ``done`` / ``cancelled`` / ``failed`` message carrying the job's LP-solve
  and training counters.
* ``{"op": "status"}`` (optionally ``"job": id``, a string) -- server
  uptime, warm cache sizes, and per-job progress.  Queued and running jobs
  are always listed; of the finished ones, the last
  :data:`MAX_FINISHED_JOBS` to finish (an older id is an unknown job).
* ``{"op": "cancel", "job": id}`` -- stop that job after its current cell
  (already-finished cells stay checkpointed, so it is resumable); cancelling
  an unknown or already-finished job is a structured error, never a crash.
* ``{"op": "ping"}`` / ``{"op": "shutdown"}`` -- liveness / graceful stop
  (the running job is cancelled cleanly, i.e. checkpointed).

Malformed request lines, and lines longer than :data:`MAX_REQUEST_BYTES`,
get a structured ``error`` reply and the daemon keeps serving.  A client
that disconnects mid-stream cancels *its own* job only.  A stale socket
file left by a killed daemon is detected (nothing accepts connections on
it) and replaced on restart; a live daemon on the same path refuses to be
shadowed.

Jobs execute through the :meth:`~repro.study.study.Study.plan` /
:meth:`~repro.study.study.Study.execute` split: the queue worker owns the
loop, streaming each record from ``on_cell`` and polling the job's cancel
flag via ``should_stop``.
"""

from __future__ import annotations

import json
import queue
import select
import socket
import threading
import time
import warnings
from collections import deque
from collections.abc import Mapping
from pathlib import Path

from repro.evaluation.engine import EvaluationEngine
from repro.solvers.lp import count_lp_solves
from repro.study.results import StudyResult
from repro.study.spec import ExperimentSpec
from repro.study.study import Study, StudyCancelled

__all__ = ["StudyServer", "PROTOCOL_VERSION"]

#: Wire protocol version, echoed in ``pong`` / ``status`` replies so clients
#: can detect a daemon speaking a different dialect.
PROTOCOL_VERSION = 2

#: Job lifecycle states (terminal: done / failed / cancelled).
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)
_TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Keys a submit request may carry (anything else is a structured error --
#: a typo'd option should not be silently ignored).
_SUBMIT_KEYS = frozenset({"op", "spec", "checkpoint", "resume", "warehouse"})

#: Longest request line the daemon reads (bytes, newline excluded): a client
#: streaming bytes without a newline gets an ``error`` instead of a thread
#: whose buffer grows without bound.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Finished jobs the daemon keeps for ``status``; beyond this the one that
#: finished first is forgotten, so a long-lived daemon's job table stays
#: bounded.  Queued and running jobs are never dropped.
MAX_FINISHED_JOBS = 1000


class _Job:
    """One queued/running/finished unit of work and its client stream."""

    def __init__(
        self,
        job_id: str,
        cells: list[ExperimentSpec],
        checkpoint: Path | None,
        resume: bool,
        warehouse,
        stream: socket.socket | None,
    ) -> None:
        self.id = job_id
        # Dropped (None) when the job reaches a terminal state: finished jobs
        # stay in the server's table for ``status``, their cells need not.
        self.cells: list[ExperimentSpec] | None = cells
        self.checkpoint = checkpoint
        self.resume = resume
        self.warehouse = warehouse
        self.status = QUEUED
        self.error: str | None = None
        self.cancel_reason: str | None = None
        self.completed = 0          # records emitted (including resumed ones)
        self.total = len(cells)
        self.lp_solves: int | None = None
        self.trainings: int | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        # The submitting client's connection; records stream to it from the
        # queue worker.  Guarded by stream_lock (the monitor thread clears it
        # on disconnect while the worker writes to it).
        self.stream = stream
        self.stream_lock = threading.Lock()

    def describe(self) -> dict:
        """The job's status payload (used by ``status`` replies)."""
        return {
            "job": self.id,
            "status": self.status,
            "cells": self.total,
            "completed": self.completed,
            "checkpoint": str(self.checkpoint) if self.checkpoint else None,
            "resume": self.resume,
            "lp_solves": self.lp_solves,
            "trainings": self.trainings,
            "error": self.error,
            "cancel_reason": self.cancel_reason,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class StudyServer:
    """A long-lived study daemon on a local Unix socket.

    Args:
        socket_path: Path of the Unix socket to listen on.  A stale socket
            file (left by a killed daemon) is replaced; a live daemon on the
            path raises :class:`OSError`.
        warehouse: Default results warehouse path jobs append to (a job's
            own ``"warehouse"`` option overrides it; ``None`` = no
            warehouse unless the job asks for one).
        spool_dir: Directory job checkpoint names resolve under (created on
            demand).  Defaults to ``<socket_path>.spool/`` so checkpoints
            survive a daemon restart next to the socket they belong to.
        engine: The ONE engine, with its ONE warm LP cache, every job runs
            through (a fresh :class:`~repro.evaluation.engine.
            EvaluationEngine` by default).

    Each job runs its cells in order, one at a time: the daemon's
    parallelism is the shared warm state, not per-job pools, and its
    cancellation is polled between cells.
    """

    def __init__(
        self,
        socket_path,
        warehouse=None,
        spool_dir=None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.socket_path = Path(socket_path).expanduser()
        self.spool_dir = (
            Path(spool_dir).expanduser()
            if spool_dir is not None
            else self.socket_path.with_name(self.socket_path.name + ".spool")
        )
        self.default_warehouse = warehouse
        # One warm engine for every job: its LP cache and replay memo (each
        # job replays through a ReplaySession on it), and the scenario /
        # trained-scheme dicts below, ARE the service -- they make a second
        # client's overlapping grid free.
        self.engine = engine if engine is not None else EvaluationEngine()
        self._scheme_cache: dict = {}
        self._scenario_cache: dict = {}
        self._jobs: dict[str, _Job] = {}
        self._finished: deque[str] = deque()  # finished job ids, oldest first
        self._queue: queue.Queue[_Job] = queue.Queue()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._sock: socket.socket | None = None
        self._worker: threading.Thread | None = None
        self._job_counter = 0
        self._started_at = time.time()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        """Bind the listening socket, replacing a stale socket file.

        A socket file with nothing listening behind it (daemon killed with
        SIGKILL, machine reboot) would otherwise make every restart fail
        with ``Address already in use``; one with a live daemon must win --
        silently stealing its clients would be worse than refusing to start.
        """
        if self.socket_path.exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.5)
            try:
                probe.connect(str(self.socket_path))
            except OSError:
                # Nothing accepting: a stale file from a dead daemon.
                self.socket_path.unlink(missing_ok=True)
            else:
                probe.close()
                raise OSError(
                    f"a study daemon is already listening on {self.socket_path}; "
                    "stop it first (or serve on a different --socket path)"
                )
            finally:
                probe.close()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(self.socket_path))
        sock.listen(16)
        # A timeout makes accept() poll the stop flag: closing a listening
        # socket from another thread does NOT wake a blocked accept() on
        # Linux, so a plain blocking accept would hang serve_forever past
        # stop().  (Accepted connections come back in blocking mode.)
        sock.settimeout(0.2)
        self._sock = sock

    def serve_forever(self, ready: threading.Event | None = None) -> None:
        """Bind, start the queue worker, and accept clients until stopped.

        Args:
            ready: Optional event set once the socket is listening (tests
                and the CLI use it to print/await readiness without racing
                the bind).
        """
        self._bind()
        self._worker = threading.Thread(
            target=self._worker_loop, name="study-server-worker", daemon=True
        )
        self._worker.start()
        if ready is not None:
            ready.set()
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._sock.accept()
                except TimeoutError:
                    continue
                except OSError:
                    # stop() closed the listening socket under us.
                    break
                threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                ).start()
        finally:
            # Let the worker finish (and checkpoint) the current cell, then
            # remove the socket file so the next start needs no stale-file
            # recovery.
            if self._worker is not None:
                self._worker.join()
            self.socket_path.unlink(missing_ok=True)

    def stop(self) -> None:
        """Gracefully stop: cancel running/queued jobs, close the socket.

        Safe to call from any thread (the CLI's SIGTERM/SIGINT handlers call
        it).  The running job stops after its current cell with everything
        finished so far checkpointed, so a ``SIGTERM``-ed daemon's jobs are
        resumable by re-submitting with ``"resume": true``.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.status in (QUEUED, RUNNING):
                self._request_cancel(job, "server shutting down")
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close() on a dead socket
                pass

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _send(self, conn: socket.socket, payload: dict) -> bool:
        try:
            conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            return True
        except OSError:
            return False

    def _serve_connection(self, conn: socket.socket) -> None:
        """Handle one client connection (one request, one reply stream)."""
        try:
            with conn:
                reader = conn.makefile("rb")
                line = reader.readline(MAX_REQUEST_BYTES + 1)
                if len(line) > MAX_REQUEST_BYTES and not line.endswith(b"\n"):
                    self._error(
                        conn, f"request line longer than {MAX_REQUEST_BYTES} bytes"
                    )
                    return
                if not line.strip():
                    return  # client connected and left (a ready-probe)
                try:
                    request = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    self._send(
                        conn,
                        {"type": "error", "error": f"malformed request line: {exc}"},
                    )
                    return
                if not isinstance(request, Mapping):
                    self._send(
                        conn,
                        {
                            "type": "error",
                            "error": "a request must be a JSON object with an 'op' key, "
                            f"got {type(request).__name__}",
                        },
                    )
                    return
                op = request.get("op")
                if op == "submit":
                    self._handle_submit(conn, request)
                elif op == "status":
                    self._handle_status(conn, request)
                elif op == "cancel":
                    self._handle_cancel(conn, request)
                elif op == "ping":
                    self._send(
                        conn,
                        {
                            "type": "pong",
                            "protocol": PROTOCOL_VERSION,
                            "uptime_seconds": time.time() - self._started_at,
                        },
                    )
                elif op == "shutdown":
                    self._send(conn, {"type": "shutting_down"})
                    self.stop()
                else:
                    self._send(
                        conn,
                        {
                            "type": "error",
                            "error": f"unknown op {op!r}; expected one of "
                            "submit/status/cancel/ping/shutdown",
                        },
                    )
        except Exception as exc:  # pragma: no cover - belt and braces
            # A handler bug must never take the daemon down with it.
            warnings.warn(
                f"study server connection handler failed: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )

    def _error(self, conn: socket.socket, message: str) -> None:
        self._send(conn, {"type": "error", "error": message})

    def _handle_submit(self, conn: socket.socket, request: Mapping) -> None:
        unknown = set(request) - _SUBMIT_KEYS
        if unknown:
            self._error(
                conn,
                f"unknown submit key(s) {sorted(unknown)}; allowed: "
                f"{sorted(_SUBMIT_KEYS - {'op'})}",
            )
            return
        spec = request.get("spec")
        if not isinstance(spec, Mapping):
            self._error(
                conn,
                "submit needs a JSON object under 'spec' (a study spec or a "
                f"suite descriptor), got {type(spec).__name__}",
            )
            return
        try:
            cells = Study(spec).specs
        except (TypeError, ValueError) as exc:
            self._error(conn, f"invalid spec: {exc}")
            return
        checkpoint_name = request.get("checkpoint")
        checkpoint: Path | None = None
        if checkpoint_name is not None:
            if not isinstance(checkpoint_name, str) or not checkpoint_name:
                self._error(
                    conn,
                    "'checkpoint' must be a non-empty name (resolved under "
                    f"the server spool directory), got {checkpoint_name!r}",
                )
                return
            checkpoint = Path(checkpoint_name)
            if not checkpoint.is_absolute():
                checkpoint = self.spool_dir / checkpoint
        resume = request.get("resume", False)
        if not isinstance(resume, bool):
            self._error(conn, f"'resume' must be a boolean, got {resume!r}")
            return
        if resume and checkpoint is None:
            self._error(
                conn,
                "'resume': true needs a 'checkpoint' name (the one the "
                "cancelled/killed job ran with)",
            )
            return
        warehouse = request.get("warehouse", self.default_warehouse)
        # An explicit null still means "no warehouse"; the server's own
        # default may be a Path, so only the request's value is checked.
        if "warehouse" in request and warehouse is not None and (
            not isinstance(warehouse, str) or not warehouse
        ):
            self._error(
                conn, f"'warehouse' must be a non-empty path string, got {warehouse!r}"
            )
            return
        with self._lock:
            if self._stopping.is_set():
                self._error(conn, "the study daemon is shutting down")
                return
            self._job_counter += 1
            job = _Job(
                job_id=f"job-{self._job_counter:04d}",
                cells=cells,
                checkpoint=checkpoint,
                resume=resume,
                warehouse=warehouse,
                stream=conn,
            )
            self._jobs[job.id] = job
            position = self._queue.qsize()
        if not self._send(
            conn,
            {
                "type": "accepted",
                "job": job.id,
                "cells": job.total,
                "queued_ahead": position,
            },
        ):
            return  # client vanished before the ack; never enqueue its work
        self._queue.put(job)
        self._monitor_stream(conn, job)

    def _monitor_stream(self, conn: socket.socket, job: _Job) -> None:
        """Keep the submit connection open; a client hang-up cancels its job.

        The client sends nothing after the request line, so any readable
        data is either junk (ignored) or EOF -- and EOF means the client
        stopped caring about this job's results.  Cancelling *only that job*
        keeps an abandoned 10k-cell grid from hogging the FIFO queue while
        other tenants wait.
        """
        while not job.done_event.wait(timeout=0.05):
            try:
                readable, _, _ = select.select([conn], [], [], 0.2)
            except OSError:
                readable = [conn]
            if not readable:
                continue
            try:
                data = conn.recv(4096)
            except OSError:
                data = b""
            if data:
                continue  # stray bytes; the protocol is one request per conn
            with job.stream_lock:
                job.stream = None
            if job.status not in _TERMINAL_STATES:
                self._request_cancel(job, "client disconnected mid-stream")
            return

    def _handle_status(self, conn: socket.socket, request: Mapping) -> None:
        job_id = request.get("job")
        if job_id is not None and not isinstance(job_id, str):
            self._error(conn, f"status 'job' must be a job id string, got {job_id!r}")
            return
        with self._lock:
            if job_id is not None:
                job = self._jobs.get(job_id)
                if job is None:
                    self._error(conn, f"unknown job {job_id!r}")
                    return
                jobs = [job.describe()]
            else:
                jobs = [job.describe() for job in self._jobs.values()]
        self._send(
            conn,
            {
                "type": "status",
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": time.time() - self._started_at,
                "warm": {
                    "lp_cache_entries": len(self.engine.cache),
                    "trained_schemes": len(self._scheme_cache),
                    "memoised_replays": self.engine.memoised_replays(),
                    "scenarios": len(self._scenario_cache),
                },
                "jobs": jobs,
            },
        )

    def _finish(self, job: _Job, status: str) -> None:
        """Put a job in its terminal ``status`` (caller holds the lock).

        Its cells are dropped, and so is the job that finished first once
        more than :data:`MAX_FINISHED_JOBS` have.
        """
        job.status = status
        job.finished_at = time.time()
        job.cells = None
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            self._jobs.pop(self._finished.popleft(), None)

    def _request_cancel(self, job: _Job, reason: str) -> bool:
        """Flag a job for cancellation (idempotent; returns False if late)."""
        with self._lock:
            if job.status in _TERMINAL_STATES or job.cancel_event.is_set():
                return False
            job.cancel_reason = reason
            job.cancel_event.set()
            queued = job.status == QUEUED
            if queued:
                # Mark immediately: the worker may be busy for a long time,
                # and a queued job needs no cell-boundary to stop at.
                self._finish(job, CANCELLED)
        if queued:
            self._emit(
                job,
                {
                    "type": "cancelled",
                    "job": job.id,
                    "completed": job.completed,
                    "total": job.total,
                    "reason": reason,
                },
            )
            job.done_event.set()
        return True

    def _handle_cancel(self, conn: socket.socket, request: Mapping) -> None:
        job_id = request.get("job")
        if not isinstance(job_id, str) or not job_id:
            self._error(conn, "cancel needs a 'job' id string")
            return
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            self._error(conn, f"unknown job {job_id!r}")
            return
        if job.status in _TERMINAL_STATES:
            self._error(conn, f"job {job_id} already {job.status}")
            return
        if not self._request_cancel(job, "cancelled by client"):
            # Lost the race with another cancel (or the job finishing).
            self._error(
                conn,
                f"job {job_id} is already being cancelled"
                if job.status not in _TERMINAL_STATES
                else f"job {job_id} already {job.status}",
            )
            return
        self._send(
            conn,
            {
                "type": "cancelling" if job.status == RUNNING else "cancelled",
                "job": job.id,
                "status": job.status,
            },
        )

    # ------------------------------------------------------------------ #
    # Job execution (the FIFO queue worker)
    # ------------------------------------------------------------------ #
    def _emit(self, job: _Job, payload: dict) -> None:
        """Stream one message to the job's submitting client (if still there).

        A failed write means the client went away: the stream is dropped and
        the job cancelled (the monitor thread usually notices EOF first; this
        is the belt-and-braces path for an abrupt teardown).
        """
        with job.stream_lock:
            stream = job.stream
            if stream is None:
                return
            try:
                stream.sendall((json.dumps(payload) + "\n").encode("utf-8"))
                return
            except OSError:
                job.stream = None
        if job.status not in _TERMINAL_STATES:
            self._request_cancel(job, "client disconnected mid-stream")

    def _worker_loop(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            if job.status == CANCELLED:
                continue  # cancelled while queued; already told the client
            self._run_job(job)
            if self._stopping.is_set() and self._queue.empty():
                return

    def _run_job(self, job: _Job) -> None:
        with self._lock:
            if job.status in _TERMINAL_STATES:
                return  # cancelled while queued, after the worker dequeued it
            job.status = RUNNING
            job.started_at = time.time()
        schemes_before = set(self._scheme_cache)
        study = Study(
            job.cells,
            scheme_cache=self._scheme_cache,
            scenario_cache=self._scenario_cache,
        )

        def on_cell(index: int, record: StudyResult) -> None:
            job.completed += 1
            self._emit(
                job,
                {
                    "type": "record",
                    "job": job.id,
                    "index": index,
                    "completed": job.completed,
                    "total": job.total,
                    "record": record.to_dict(),
                },
            )

        terminal: dict | None = None
        try:
            with count_lp_solves() as tally:
                plan = study.plan(
                    engine=self.engine,
                    checkpoint=job.checkpoint,
                    warehouse=job.warehouse,
                    resume=job.resume,
                )
                # Cells loaded from a resumed checkpoint count as completed
                # work the client never has to wait for; stream them too so
                # a resumed submit still receives the full record set.
                for index in sorted(plan.completed):
                    on_cell(index, plan.completed[index])
                results = study.execute(
                    plan, on_cell=on_cell, should_stop=job.cancel_event.is_set
                )
        except StudyCancelled:
            status = CANCELLED
            terminal = {
                "type": "cancelled",
                "job": job.id,
                "completed": job.completed,
                "total": job.total,
                "reason": job.cancel_reason or "cancelled",
            }
        except Exception as exc:
            status = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            terminal = {"type": "failed", "job": job.id, "error": job.error}
        else:
            status = DONE
            terminal = {
                "type": "done",
                "job": job.id,
                "records": len(results),
                "lp_solves": tally.count,
                "trainings": len(set(self._scheme_cache) - schemes_before),
                "wall_seconds": time.time() - job.started_at,
            }
        with self._lock:
            job.lp_solves = tally.count
            job.trainings = len(set(self._scheme_cache) - schemes_before)
            self._finish(job, status)
        self._emit(job, terminal)
        job.done_event.set()
