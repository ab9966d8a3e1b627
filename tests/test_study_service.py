"""The study service: plan/execute split, daemon protocol, warm-state proof.

Acceptance contract pinned here:

* ``Study.plan()`` + ``Study.execute()`` is bit-identical to ``Study.run()``
  (same ``to_json``), plans are inert (no checkpoint header until execute),
  ``on_cell`` streams every record in completion order, and ``should_stop``
  raises :class:`StudyCancelled` at the next cell boundary with finished
  cells checkpointed and resumable.
* With the daemon up, a client submitting a study identical to an
  already-completed one receives **bit-identical records with zero new LP
  solves and zero new trainings** -- the cross-client warm-state guarantee.
* Protocol error paths never kill the daemon: malformed JSON and unknown
  ops get structured ``error`` replies, as do a submit carrying a
  ``"kind"``, a non-string ``"warehouse"`` (nothing queued) and a
  ``status`` whose ``"job"`` is not a string; a client disconnect
  mid-stream cancels only its own job, double-cancel / unknown-job-id are
  clean errors, the oldest finished jobs beyond ``MAX_FINISHED_JOBS`` are
  forgotten (queued and running ones never), and a stale socket file from a killed daemon is detected
  and replaced on restart (while a live daemon on the path refuses a
  second bind).

The server fixture binds sockets under ``tempfile.mkdtemp`` rather than
pytest's ``tmp_path``: ``AF_UNIX`` paths are capped around 107 bytes and
deeply nested pytest temp dirs can blow past that.
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.solvers.lp import count_lp_solves
from repro.study import (
    ResultSet,
    Study,
    StudyCancelled,
    StudyCheckpoint,
    StudyClient,
    StudyServer,
    StudyServiceError,
)
from repro.study.server import _Job
from repro.study.warehouse import ResultWarehouse


def scenario_config(name: str, num_intervals: int = 20) -> dict:
    return {
        "name": name,
        "topology": {"kind": "fully_connected", "num_nodes": 4, "capacity": 10.0},
        "traffic": {"kind": "datacenter", "level": "pod", "num_intervals": num_intervals},
        "history_len": 3,
    }


CHEAP_SCHEME = {"kind": "figret", "epochs": 1, "history_len": 3, "seed": 0}


def grid_spec(name: str = "svc", alphas=(1.0, 2.0)) -> dict:
    """A small grid whose cells need real LP normaliser solves."""
    return {
        "scenario": scenario_config(name),
        "scheme": CHEAP_SCHEME,
        "perturbation": {
            "sweep": [{"kind": "none"}]
            + [{"kind": "fluctuation", "alpha": alpha} for alpha in alphas]
        },
        "max_intervals": 6,
    }


def wire_dicts(results) -> str:
    return json.dumps(
        [record.to_dict() for record in results], sort_keys=True
    )


# --------------------------------------------------------------------------- #
# Study.plan() / Study.execute()
# --------------------------------------------------------------------------- #
class TestPlanExecute:
    def test_plan_execute_matches_run(self):
        spec = grid_spec("plan-eq")
        direct = Study(spec).run()
        study = Study(spec)
        plan = study.plan()
        assert plan.total == 3 and plan.remaining == 3 and not plan.completed
        via_plan = study.execute(plan)
        assert via_plan.to_json() == direct.to_json()

    def test_plan_is_inert_until_execute(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        study = Study(grid_spec("plan-inert"))
        study.plan(checkpoint=ckpt)
        assert not ckpt.exists()

    def test_on_cell_streams_every_record_in_order(self):
        study = Study(grid_spec("plan-stream"))
        seen: list[tuple[int, str]] = []
        results = study.execute(
            study.plan(),
            on_cell=lambda index, record: seen.append((index, record.experiment)),
        )
        assert [index for index, _ in seen] == [0, 1, 2]
        assert len(results) == len(seen) == 3

    def test_should_stop_cancels_and_resumes_bit_identical(self, tmp_path):
        spec = grid_spec("plan-cancel")
        direct = Study(spec).run()
        ckpt = tmp_path / "cancel.ckpt"
        stop = threading.Event()
        study = Study(spec)

        def on_cell(index, record):
            stop.set()  # ask for cancellation after the first finished cell

        with pytest.raises(StudyCancelled) as excinfo:
            study.execute(study.plan(checkpoint=ckpt), on_cell=on_cell,
                          should_stop=stop.is_set)
        assert excinfo.value.completed == 1
        assert "resumable" in str(excinfo.value)
        assert len(StudyCheckpoint(ckpt).load()) == 1
        resumed = Study(spec).resume(ckpt)
        assert resumed.to_json() == direct.to_json()

    def test_resume_plan_carries_completed_records(self, tmp_path):
        spec = grid_spec("plan-resume")
        ckpt = tmp_path / "resume.ckpt"
        stop = threading.Event()
        study = Study(spec)
        with pytest.raises(StudyCancelled):
            study.execute(study.plan(checkpoint=ckpt),
                          on_cell=lambda i, r: stop.set(),
                          should_stop=stop.is_set)
        plan = Study(spec).plan(checkpoint=ckpt, resume=True)
        assert plan.total == 3 and set(plan.completed) == {0} and plan.remaining == 2

    def test_suite_plan_execute_passthrough(self, tmp_path):
        descriptor = {
            "name": "svc-suite",
            "studies": [{"name": "one", "spec": grid_spec("suite-pe", alphas=())}],
        }
        direct = Study(descriptor).run()
        suite = Study(descriptor)
        assert suite.execute(suite.plan()).to_json() == direct.to_json()


# --------------------------------------------------------------------------- #
# Daemon fixture
# --------------------------------------------------------------------------- #
@pytest.fixture()
def service():
    """A live daemon on a short-path socket; yields (server, client)."""
    root = Path(tempfile.mkdtemp(prefix="repro-svc-"))
    server = StudyServer(root / "daemon.sock")
    ready = threading.Event()
    thread = threading.Thread(target=server.serve_forever, kwargs={"ready": ready},
                              daemon=True)
    thread.start()
    assert ready.wait(10), "daemon never became ready"
    yield server, StudyClient(server.socket_path)
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def cell_gate(monkeypatch):
    """An event that every daemon cell after the first waits for.

    The daemon runs its jobs on a thread of this process, so a test can hold
    a job at its second cell until a cancel or stop has been acknowledged:
    the job cannot finish first.  Cells run on the test's own thread (a
    direct ``Study.run``) are never held, and teardown releases any held
    cell before the daemon stops.
    """
    gate = threading.Event()
    run_cell = Study._run_cell
    daemon_cells = []

    def gated(study, cell, engine):
        if threading.current_thread() is not threading.main_thread():
            if daemon_cells:
                assert gate.wait(60), "the gate was never opened"
            daemon_cells.append(cell)
        return run_cell(study, cell, engine)

    monkeypatch.setattr(Study, "_run_cell", gated)
    yield gate
    gate.set()


def raw_request(socket_path, payload: bytes) -> dict:
    """Send raw bytes (possibly malformed) and read one reply line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(str(socket_path))
        sock.sendall(payload)
        line = sock.makefile("rb").readline()
    return json.loads(line)


# --------------------------------------------------------------------------- #
# Warm-state guarantee (the tentpole's acceptance criterion)
# --------------------------------------------------------------------------- #
class TestWarmState:
    def test_second_identical_submit_is_free_and_bit_identical(self, service):
        server, client = service
        spec = grid_spec("warm")
        first = client.submit(spec)
        assert first.status == "done" and len(first.results) == 3
        assert first.summary["lp_solves"] > 0
        assert first.summary["trainings"] == 1

        with count_lp_solves() as tally:
            second = client.submit(spec)
        assert second.status == "done"
        # Zero new LP solves: both the server's per-job tally and a
        # process-wide tally spanning the submit (the daemon runs in this
        # process, so any stray solve would land in `tally` too).
        assert second.summary["lp_solves"] == 0
        assert second.summary["trainings"] == 0
        assert tally.count == 0
        assert wire_dicts(second.results) == wire_dicts(first.results)

    def test_overlapping_submits_from_concurrent_clients(self, service):
        server, client = service
        base = grid_spec("overlap", alphas=(1.0,))
        superset = grid_spec("overlap", alphas=(1.0, 2.0))
        outcomes: dict[str, object] = {}

        def submit(tag, spec):
            outcomes[tag] = StudyClient(server.socket_path).submit(spec)

        threads = [
            threading.Thread(target=submit, args=("base", base)),
            threading.Thread(target=submit, args=("superset", superset)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        base_out, superset_out = outcomes["base"], outcomes["superset"]
        assert base_out.status == superset_out.status == "done"
        # FIFO: whichever ran second reused the first job's LP cache and
        # trained scheme; together they solve no more than one cold run of
        # the superset grid, and train exactly once.
        total_trainings = base_out.summary["trainings"] + superset_out.summary["trainings"]
        assert total_trainings == 1
        # The overlapping 2 of 3 cells are shared: the union of both jobs'
        # solves must equal ONE cold superset run's solves.  The cold
        # reference runs on an isolated engine -- the process-wide
        # shared_cache() may already be warm from other tests.
        from repro.evaluation.engine import EvaluationEngine
        from repro.solvers.lp import OptimalMLUCache

        with count_lp_solves() as tally:
            Study(superset).run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        assert (base_out.summary["lp_solves"] + superset_out.summary["lp_solves"]
                == tally.count)
        # shared cells bit-identical across the two clients
        shared_first = wire_dicts(base_out.results[:2])
        shared_second = wire_dicts(superset_out.results[:2])
        assert shared_first == shared_second

    def test_results_match_direct_run(self, service):
        server, client = service
        spec = grid_spec("direct-eq", alphas=(1.0,))
        outcome = client.submit(spec)
        direct = Study(spec).run()
        assert wire_dicts(outcome.results) == wire_dicts(direct)

    def test_warehouse_append(self, service, tmp_path):
        server, client = service
        warehouse = tmp_path / "wh.jsonl"
        outcome = client.submit(grid_spec("wh", alphas=()), warehouse=warehouse)
        assert outcome.status == "done"
        assert len(ResultWarehouse(warehouse).results()) == 1
        # The daemon's own default may be a Path; only a request's value
        # has to be a string.
        server.default_warehouse = tmp_path / "default.jsonl"
        assert client.submit(grid_spec("wh", alphas=())).status == "done"
        assert len(ResultWarehouse(server.default_warehouse).results()) == 1

    def test_two_jobs_naming_one_warehouse_both_finish(self, service, tmp_path, cell_gate):
        # A warehouse has one writer at a time.  The FIFO worker runs the
        # second job only after the first, whose stores are closed by then.
        server, client = service
        warehouse = tmp_path / "shared.wh.jsonl"
        outcomes = {}

        def submit_second():
            outcomes["second"] = StudyClient(server.socket_path).submit(
                grid_spec("wh-two", alphas=()), warehouse=warehouse
            )

        second = threading.Thread(target=submit_second)

        def on_message(message):
            if message["type"] == "record" and not second.is_alive() and "second" not in outcomes:
                # The first job holds the warehouse, held at its second cell.
                second.start()
                deadline = time.monotonic() + 30
                while len(StudyClient(server.socket_path).status()["jobs"]) < 2:
                    assert time.monotonic() < deadline, "the second job was never queued"
                    time.sleep(0.01)
                cell_gate.set()

        outcomes["first"] = client.submit(
            grid_spec("wh-one", alphas=(1.0,)), warehouse=warehouse, on_message=on_message
        )
        second.join(timeout=60)
        assert outcomes["first"].status == outcomes["second"].status == "done"
        assert [record.scenario for record in ResultWarehouse(warehouse).load()] == [
            "wh-one", "wh-one", "wh-two"
        ]

    def test_status_reports_warm_caches_and_jobs(self, service):
        server, client = service
        client.submit(grid_spec("status", alphas=()))
        status = client.status()
        assert status["warm"]["lp_cache_entries"] > 0
        assert status["warm"]["trained_schemes"] == 1
        assert status["warm"]["scenarios"] == 1
        (job,) = status["jobs"]
        assert job["status"] == "done" and job["completed"] == job["cells"] == 1
        assert client.status(job=job["job"])["jobs"] == [job]

    def test_finished_job_drops_its_cells(self, service):
        server, client = service
        outcome = client.submit(grid_spec("drop-cells"))
        job = server._jobs[outcome.job]
        assert job.cells is None
        (payload,) = client.status(job=outcome.job)["jobs"]
        assert payload == job.describe()
        assert payload["status"] == "done"
        assert payload["cells"] == payload["completed"] == 3
        assert set(payload) == {
            "job", "status", "cells", "completed", "checkpoint", "resume",
            "lp_solves", "trainings", "error", "cancel_reason", "submitted_at",
            "started_at", "finished_at",
        }

    def test_daemon_forgets_the_oldest_finished_jobs(self, service, monkeypatch):
        from repro.study import server as server_module

        monkeypatch.setattr(server_module, "MAX_FINISHED_JOBS", 2)
        server, client = service
        # A job still queued is never forgotten, however many finish after it.
        held = _Job("job-held", Study(grid_spec("held")).specs, None, False, None, None)
        server._jobs[held.id] = held
        jobs = [client.submit(grid_spec("forget", alphas=())).job for _ in range(3)]
        assert [job["job"] for job in client.status()["jobs"]] == ["job-held", *jobs[1:]]
        with pytest.raises(StudyServiceError, match="unknown job"):
            client.status(job=jobs[0])
        with pytest.raises(StudyServiceError, match="unknown job"):
            client.cancel(jobs[0])
        assert client.status(job=jobs[1])["jobs"][0]["status"] == "done"
        assert len(server._jobs) == 3

    def test_job_cancelled_while_queued_never_runs(self, service):
        # The worker may dequeue a job just before a cancel marks it: the
        # job must stay cancelled, not run its (dropped) cells.
        server, _ = service
        job = _Job("job-queued", Study(grid_spec("queued")).specs, None, False, None, None)
        assert server._request_cancel(job, "cancelled by client")
        assert job.status == "cancelled" and job.cells is None
        server._run_job(job)
        assert job.status == "cancelled" and job.started_at is None

    def test_suite_submit(self, service):
        server, client = service
        descriptor = {
            "name": "svc",
            "studies": [{"name": "one", "spec": grid_spec("suite-job", alphas=())}],
        }
        outcome = client.submit(descriptor)
        assert outcome.status == "done" and len(outcome.results) == 1
        (record,) = outcome.results
        assert record.tags["suite"] == "svc" and record.tags["study"] == "one"
        assert "kind" not in client.status(job=outcome.job)["jobs"][0]


# --------------------------------------------------------------------------- #
# Cancel / resume through the daemon
# --------------------------------------------------------------------------- #
class TestCancelResume:
    def test_cancel_mid_job_then_resume_completes(self, service, cell_gate):
        server, client = service
        spec = grid_spec("svc-cancel", alphas=(1.0, 2.0, 3.0))
        direct = Study(spec).run()

        terminal = None
        for message in client.submit_iter(spec, checkpoint="cancel-job"):
            if message["type"] == "record" and message["completed"] == 1:
                reply = StudyClient(server.socket_path).cancel(message["job"])
                assert reply["type"] in ("cancelling", "cancelled")
                cell_gate.set()
            if message["type"] in ("done", "cancelled", "failed"):
                terminal = message
        assert terminal["type"] == "cancelled"
        assert 0 < terminal["completed"] < 4

        resumed = client.submit(spec, checkpoint="cancel-job", resume=True)
        assert resumed.status == "done" and len(resumed.results) == 4
        assert wire_dicts(resumed.results) == wire_dicts(direct)

    def test_double_cancel_and_cancel_finished_are_clean_errors(self, service):
        server, client = service
        outcome = client.submit(grid_spec("done-cancel", alphas=()))
        with pytest.raises(StudyServiceError, match="already done"):
            client.cancel(outcome.job)

    def test_unknown_job_id_is_clean_error(self, service):
        _, client = service
        with pytest.raises(StudyServiceError, match="unknown job"):
            client.cancel("job-9999")
        with pytest.raises(StudyServiceError, match="unknown job"):
            client.status(job="job-9999")

    def test_resume_without_checkpoint_rejected(self, service):
        _, client = service
        with pytest.raises(StudyServiceError, match="needs a 'checkpoint'"):
            client.submit(grid_spec("r", alphas=()), resume=True)

    def test_server_stop_cancels_running_job_checkpointed(self, service, cell_gate):
        server, client = service
        spec = grid_spec("stop-cancel", alphas=(1.0, 2.0, 3.0))
        terminal = {}

        def on_message(message):
            if message["type"] == "record" and message["completed"] == 1:
                server.stop()  # SIGTERM path: the CLI handler calls exactly this
                cell_gate.set()

        outcome = client.submit(spec, checkpoint="stop-job", on_message=on_message)
        terminal = outcome.summary
        assert outcome.status == "cancelled"
        assert terminal["reason"] == "server shutting down"
        ckpt = StudyCheckpoint(server.spool_dir / "stop-job")
        assert 0 < len(ckpt.load()) < 4  # finished cells survived the stop


# --------------------------------------------------------------------------- #
# Protocol error paths (the daemon must outlive all of these)
# --------------------------------------------------------------------------- #
class TestProtocolErrors:
    def test_malformed_json_gets_structured_error(self, service):
        server, client = service
        reply = raw_request(server.socket_path, b"{not json\n")
        assert reply["type"] == "error" and "malformed" in reply["error"]
        assert client.ping()["type"] == "pong"  # daemon survived

    def test_overlong_request_line_is_an_error_not_a_growing_buffer(
        self, service, monkeypatch
    ):
        server, client = service
        monkeypatch.setattr("repro.study.server.MAX_REQUEST_BYTES", 1024)
        # No newline, and the socket stays open: only the bound ends the read.
        reply = raw_request(server.socket_path, b"x" * 1025)
        assert reply["type"] == "error" and "longer than 1024 bytes" in reply["error"]
        assert client.ping()["type"] == "pong"

    def test_non_object_request_rejected(self, service):
        server, client = service
        reply = raw_request(server.socket_path, b"[1, 2, 3]\n")
        assert reply["type"] == "error" and "JSON object" in reply["error"]
        assert client.ping()["type"] == "pong"

    def test_unknown_op_rejected(self, service):
        server, client = service
        reply = raw_request(server.socket_path, b'{"op": "frobnicate"}\n')
        assert reply["type"] == "error" and "unknown op" in reply["error"]

    def test_invalid_spec_rejected_before_queueing(self, service):
        _, client = service
        with pytest.raises(StudyServiceError, match="invalid spec: unknown experiment spec"):
            client.submit({"bogus_key": 1})
        with pytest.raises(StudyServiceError, match="invalid spec: unknown suite descriptor"):
            client.submit({"bogus_key": 1, "studies": [{"spec": {}}]})
        with pytest.raises(StudyServiceError, match=r"unknown experiment spec key\(s\) \['train'\]"):
            client.submit({"scenario": "geant_small", "scheme": {"kind": "des_te"}, "train": False})
        assert client.status()["jobs"] == []  # nothing was queued

    def test_submit_carrying_kind_is_an_unknown_key(self, service):
        server, client = service
        reply = raw_request(
            server.socket_path,
            json.dumps({"op": "submit", "kind": "suite", "spec": {}}).encode() + b"\n",
        )
        assert reply["type"] == "error" and "['kind']" in reply["error"]
        assert client.ping()["protocol"] == 2
        assert client.status()["jobs"] == []

    @pytest.mark.parametrize("warehouse", [5, ["a"], {"path": "w"}, "", True])
    def test_non_string_warehouse_rejected_before_queueing(self, service, warehouse):
        server, client = service
        spec = grid_spec("bad-warehouse", alphas=())
        reply = raw_request(
            server.socket_path,
            json.dumps({"op": "submit", "spec": spec, "warehouse": warehouse}).encode()
            + b"\n",
        )
        assert reply["type"] == "error" and "'warehouse'" in reply["error"]
        assert client.status()["jobs"] == []  # nothing was queued

    @pytest.mark.parametrize("job", [["x"], {"id": "job-0001"}, 7])
    def test_status_with_a_non_string_job_is_a_structured_error(self, service, job):
        server, client = service
        reply = raw_request(
            server.socket_path, json.dumps({"op": "status", "job": job}).encode() + b"\n"
        )
        assert reply["type"] == "error" and "job id string" in reply["error"]
        assert client.ping()["type"] == "pong"

    def test_unknown_submit_key_rejected(self, service):
        server, client = service
        reply = raw_request(
            server.socket_path,
            json.dumps({"op": "submit", "spec": {}, "checkpint": "typo"}).encode()
            + b"\n",
        )
        assert reply["type"] == "error" and "checkpint" in reply["error"]

    def test_client_disconnect_cancels_only_its_job(self, service):
        server, client = service
        # Park a slow job at the head of the FIFO queue so the disconnecting
        # client's job stays queued long enough for the server's monitor to
        # notice the EOF (a warm job can otherwise finish before detection).
        slow_spec = {
            "scenario": scenario_config("disconnect-slow", num_intervals=60),
            "scheme": dict(CHEAP_SCHEME, epochs=60),
            "max_intervals": 30,
        }
        slow_outcome = {}
        slow_thread = threading.Thread(
            target=lambda: slow_outcome.update(
                done=StudyClient(server.socket_path).submit(slow_spec)
            )
        )
        slow_thread.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            jobs = client.status()["jobs"]
            if any(job["status"] == "running" for job in jobs):
                break
            time.sleep(0.02)

        spec = grid_spec("disconnect", alphas=(1.0, 2.0, 3.0))
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(server.socket_path))
        sock.sendall((json.dumps({"op": "submit", "spec": spec}) + "\n").encode())
        reader = sock.makefile("rb")
        accepted = json.loads(reader.readline())
        assert accepted["type"] == "accepted"
        # The client vanishes while its job waits in the queue.  shutdown()
        # forces the FIN out even though the makefile reader still holds a
        # reference to the socket's fd.
        sock.shutdown(socket.SHUT_RDWR)
        reader.close()
        sock.close()

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            (job,) = client.status(job=accepted["job"])["jobs"]
            if job["status"] == "cancelled":
                break
            time.sleep(0.05)
        assert job["status"] == "cancelled"
        assert "disconnected" in job["cancel_reason"]
        # ...and ONLY its job: the in-flight job from the other client is
        # untouched, and the daemon keeps serving new work end-to-end.
        slow_thread.join(timeout=120)
        assert slow_outcome["done"].status == "done"
        follow_up = client.submit(grid_spec("disconnect-after", alphas=()))
        assert follow_up.status == "done"

    def test_stale_socket_replaced_live_daemon_refused(self, service):
        server, _ = service
        root = Path(tempfile.mkdtemp(prefix="repro-stale-"))
        stale = root / "stale.sock"
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(str(stale))
        dead.close()  # a bound-but-dead socket file, as a SIGKILL leaves behind

        replacement = StudyServer(stale)
        ready = threading.Event()
        thread = threading.Thread(target=replacement.serve_forever,
                                  kwargs={"ready": ready}, daemon=True)
        thread.start()
        assert ready.wait(10)
        assert StudyClient(stale).ping()["type"] == "pong"
        # a second daemon must refuse the live socket rather than steal it
        with pytest.raises(OSError, match="already listening"):
            StudyServer(stale).serve_forever()
        replacement.stop()
        thread.join(timeout=10)
        assert not stale.exists()  # graceful stop cleans up its socket file

    def test_shutdown_op_stops_daemon(self):
        root = Path(tempfile.mkdtemp(prefix="repro-shutdown-"))
        server = StudyServer(root / "daemon.sock")
        ready = threading.Event()
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"ready": ready}, daemon=True)
        thread.start()
        assert ready.wait(10)
        client = StudyClient(server.socket_path)
        assert client.shutdown()["type"] == "shutting_down"
        thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.raises(StudyServiceError, match="cannot reach"):
            client.ping()


# --------------------------------------------------------------------------- #
# Client-side niceties
# --------------------------------------------------------------------------- #
class TestClient:
    def test_wait_until_ready_times_out_cleanly(self, tmp_path):
        with pytest.raises(StudyServiceError, match="became ready"):
            StudyClient.wait_until_ready(tmp_path / "never.sock", timeout=0.3)

    def test_submit_returns_resultset(self, service):
        _, client = service
        outcome = client.submit(grid_spec("rs", alphas=()))
        assert isinstance(outcome.results, ResultSet)
        assert outcome.records_by_index.keys() == {0}
