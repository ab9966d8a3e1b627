"""Client for the study service (:mod:`repro.study.server`).

:class:`StudyClient` speaks the daemon's newline-delimited JSON protocol
over its Unix socket: one request per connection, one JSON object per line
back.  Both submit calls take one document -- a study spec or a suite
descriptor; the daemon tells them apart by their keys.  ``submit`` blocks
until the job finishes and returns a :class:`JobOutcome` whose ``results``
is a fully reconstructed :class:`~repro.study.results.ResultSet` (each
streamed ``record`` payload is the
:class:`~repro.study.results.StudyCheckpoint` wire format, so
:meth:`~repro.study.results.StudyResult.from_dict` round-trips it
losslessly); ``submit_iter`` yields the raw protocol messages as they
arrive for callers that want streaming progress.

>>> from repro.study.client import StudyClient
>>> client = StudyClient("/tmp/repro.sock")
>>> outcome = client.submit({"scenario": "geant_small",
...                          "scheme": {"kind": "figret"}})
>>> print(outcome.summary["lp_solves"], len(outcome.results))
"""

from __future__ import annotations

import json
import socket
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.study.results import ResultSet, StudyResult

__all__ = ["StudyClient", "StudyServiceError", "JobOutcome"]


class StudyServiceError(RuntimeError):
    """A structured error reply (or protocol violation) from the daemon."""


@dataclass
class JobOutcome:
    """What a blocking :meth:`StudyClient.submit` call produced.

    Attributes:
        job: Server-assigned job id.
        status: Terminal status: ``"done"`` or ``"cancelled"`` (a
            ``"failed"`` terminal raises :class:`StudyServiceError` instead).
        results: The streamed records, reconstructed in cell order.
        summary: The terminal protocol message (for ``done`` jobs this
            carries ``lp_solves`` / ``trainings`` / ``wall_seconds``).
        records_by_index: The same records keyed by grid cell index --
            ``cancel`` leaves holes, and resuming fills exactly those.
    """

    job: str
    status: str
    results: ResultSet
    summary: dict
    records_by_index: dict[int, StudyResult] = field(default_factory=dict)


class StudyClient:
    """Talk to a :class:`~repro.study.server.StudyServer` daemon."""

    def __init__(self, socket_path, timeout: float | None = None) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise StudyServiceError(
                f"cannot reach study daemon at {self.socket_path}: {exc} "
                "(is it running? start one with 'python -m repro.study serve')"
            ) from None
        return sock

    @staticmethod
    def _parse(line: bytes) -> dict:
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StudyServiceError(
                f"undecodable reply from study daemon: {exc}"
            ) from None
        if not isinstance(message, Mapping):
            raise StudyServiceError(
                f"study daemon sent a non-object reply: {message!r}"
            )
        return dict(message)

    def request(self, payload: Mapping) -> dict:
        """Send one request, return the single reply object.

        Raises :class:`StudyServiceError` on an ``error`` reply or a
        dropped connection.
        """
        with self._connect() as sock:
            sock.sendall((json.dumps(dict(payload)) + "\n").encode("utf-8"))
            line = sock.makefile("rb").readline()
        if not line:
            raise StudyServiceError(
                "study daemon closed the connection without replying"
            )
        message = self._parse(line)
        if message.get("type") == "error":
            raise StudyServiceError(message.get("error", "unknown error"))
        return message

    # ------------------------------------------------------------------ #
    # One-shot ops
    # ------------------------------------------------------------------ #
    def ping(self) -> dict:
        """Liveness check; returns the daemon's ``pong`` payload."""
        return self.request({"op": "ping"})

    def status(self, job: str | None = None) -> dict:
        """Daemon status: uptime, warm-cache sizes, and per-job progress."""
        payload: dict = {"op": "status"}
        if job is not None:
            payload["job"] = job
        return self.request(payload)

    def cancel(self, job: str) -> dict:
        """Cancel a queued/running job (it stays checkpointed + resumable)."""
        return self.request({"op": "cancel", "job": job})

    def shutdown(self) -> dict:
        """Ask the daemon to stop gracefully (running job is checkpointed)."""
        return self.request({"op": "shutdown"})

    @staticmethod
    def wait_until_ready(socket_path, timeout: float = 10.0) -> None:
        """Block until a daemon accepts connections on ``socket_path``."""
        deadline = time.monotonic() + timeout
        while True:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.5)
            try:
                probe.connect(str(socket_path))
            except OSError:
                if time.monotonic() >= deadline:
                    raise StudyServiceError(
                        f"no study daemon became ready on {socket_path} "
                        f"within {timeout:.0f}s"
                    ) from None
                time.sleep(0.05)
            else:
                return
            finally:
                probe.close()

    # ------------------------------------------------------------------ #
    # Submit
    # ------------------------------------------------------------------ #
    def _submit_payload(
        self,
        spec: Mapping,
        checkpoint: str | None,
        resume: bool,
        warehouse=None,
    ) -> dict:
        payload: dict = {"op": "submit", "spec": dict(spec)}
        if checkpoint is not None:
            payload["checkpoint"] = checkpoint
        if resume:
            payload["resume"] = True
        if warehouse is not None:
            payload["warehouse"] = str(warehouse)
        return payload

    def submit_iter(
        self,
        spec: Mapping,
        checkpoint: str | None = None,
        resume: bool = False,
        warehouse=None,
    ) -> Iterator[dict]:
        """Submit a spec and yield protocol messages as they arrive.

        Yields the ``accepted`` message, then a ``record`` message per
        finished cell, then the terminal ``done`` / ``cancelled`` /
        ``failed`` message.  An ``error`` reply (spec rejected before
        queuing) raises :class:`StudyServiceError`.
        """
        payload = self._submit_payload(spec, checkpoint, resume, warehouse)
        with self._connect() as sock:
            sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            reader = sock.makefile("rb")
            while True:
                line = reader.readline()
                if not line:
                    raise StudyServiceError(
                        "study daemon dropped the connection mid-stream "
                        "(did it crash or shut down?)"
                    )
                message = self._parse(line)
                mtype = message.get("type")
                if mtype == "error":
                    raise StudyServiceError(
                        message.get("error", "unknown error")
                    )
                yield message
                if mtype in ("done", "cancelled", "failed"):
                    return

    def submit(
        self,
        spec: Mapping,
        checkpoint: str | None = None,
        resume: bool = False,
        warehouse=None,
        on_message=None,
    ) -> JobOutcome:
        """Submit a spec, block until the job finishes, collect the records.

        Args:
            spec: Study spec or suite descriptor as a plain dict.
            checkpoint: Optional checkpoint *name*, resolved under the
                daemon's spool directory -- required for ``resume`` and for
                surviving a daemon restart.
            resume: Re-submit a cancelled/killed checkpointed job; cells
                already on disk stream back immediately without re-running.
            warehouse: Optional warehouse path overriding the daemon's
                default.
            on_message: Optional callback receiving every raw protocol
                message (for progress display).

        Returns:
            A :class:`JobOutcome`; ``status`` is ``"done"`` or
            ``"cancelled"``.

        Raises:
            StudyServiceError: on a rejected spec or a ``failed`` job.
        """
        job_id = "?"
        records: dict[int, StudyResult] = {}
        terminal: dict = {}
        for message in self.submit_iter(
            spec, checkpoint=checkpoint, resume=resume, warehouse=warehouse,
        ):
            if on_message is not None:
                on_message(message)
            mtype = message.get("type")
            if mtype == "accepted":
                job_id = message.get("job", job_id)
            elif mtype == "record":
                records[int(message["index"])] = StudyResult.from_dict(
                    message["record"]
                )
            elif mtype == "failed":
                raise StudyServiceError(
                    f"job {message.get('job', job_id)} failed: "
                    f"{message.get('error', 'unknown error')}"
                )
            elif mtype in ("done", "cancelled"):
                terminal = message
        return JobOutcome(
            job=terminal.get("job", job_id),
            status=terminal.get("type", "done"),
            results=ResultSet(records[i] for i in sorted(records)),
            summary=terminal,
            records_by_index=records,
        )
