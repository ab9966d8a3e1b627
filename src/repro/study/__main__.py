"""Run declarative studies and suites from the command line.

Usage::

    python -m repro.study doc.json [--out results.json] [--lp-workers auto]
                                   [--warehouse wh.jsonl]
                                   [--checkpoint run.ckpt [--resume]]
    python -m repro.study query wh.jsonl [--suite S] [--study T] [--seed N]
                                    [--scenario X] [--scheme Y] [--group-by cols]
    python -m repro.study export wh.jsonl out.csv [same filters as query]
    python -m repro.study serve --socket /tmp/repro.sock [--warehouse wh.jsonl]
                                    [--spool-dir DIR] [--lp-workers auto]
    python -m repro.study submit doc.json --socket /tmp/repro.sock
                                    [--checkpoint NAME [--resume]]
                                    [--warehouse wh.jsonl] [--out results.json]
    python -m repro.study status --socket /tmp/repro.sock [--job JOB]
    python -m repro.study cancel JOB --socket /tmp/repro.sock
    python -m repro.study --list-scenarios
    python -m repro.study --list-schemes

The first form runs one document -- a study spec (sweep axes spelled
``{"sweep": [...]}``) or a suite descriptor (studies x seeds x repetitions,
see :mod:`repro.study.suite`; its keys tell it apart) -- prints the result
table, optionally appends every finished cell to ``--warehouse``, and
optionally writes the full :class:`~repro.study.results.ResultSet` to
``--out``.  ``query`` aggregates a warehouse (mean +/- confidence
half-width over repetitions, pooled percentile columns) and ``export``
writes the ``run_table``-style flat CSV.

Crash recovery: with ``--checkpoint`` every finished cell is appended to the
given file as it completes, and re-running the same command with ``--resume``
added skips the finished cells and completes the remainder -- so a killed
200-cell suite restarts where it died instead of from scratch, with its
warehouse reconciled (no lost or duplicated records).

The ``serve`` form starts the long-lived study daemon
(:mod:`repro.study.server`): one warm LP cache, scenario cache, and
trained-scheme store shared across every job any client submits.
``submit`` sends a study spec or suite descriptor to a running daemon and
streams per-cell records back as they finish; ``status`` / ``cancel``
inspect and stop queued or running jobs (cancelled jobs stay checkpointed
and resumable via ``submit --resume``).
"""

from __future__ import annotations

import argparse
import json
import sys


def _workers_type(value: str):
    """``type=`` parser for ``--lp-workers``.

    Turns bad input into a clean ``parser.error`` line instead of the raw
    ``ValueError`` traceback ``int(...)`` used to produce.  The accepted
    forms live in one place -- :func:`repro.pool.resolve_workers` validates
    here too, so the CLI can never drift from the library layer.
    """
    from repro.pool import resolve_workers

    try:
        workers = value if value == "auto" else int(value)
        resolve_workers(workers)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {value!r}"
        ) from None
    return workers


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The execution knob the study runner shares with ``serve``."""
    parser.add_argument(
        "--lp-workers",
        default=None,
        type=_workers_type,
        metavar="N",
        help="LP process-pool width for cold normaliser batches ('auto' or a positive int)",
    )


def _engine_from(args):
    """The engine ``--lp-workers`` describes."""
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache

    cache = OptimalMLUCache(workers=args.lp_workers)
    return EvaluationEngine(cache=cache)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """What the study runner takes besides its input file."""
    parser.add_argument("--out", help="write the full ResultSet JSON here")
    _add_engine_options(parser)
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="append every finished cell to this crash-safe checkpoint file",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already in --checkpoint and run only the remainder",
    )
    parser.add_argument(
        "--warehouse",
        metavar="PATH",
        help="append every finished cell to this durable results warehouse",
    )


def _load_json_file(parser: argparse.ArgumentParser, path: str, what: str) -> dict:
    """Read a JSON file with CLI-grade errors.

    A missing spec file or a syntax error in it is operator input, so it
    exits via ``parser.error`` like every other bad argument -- not an
    ``OSError`` / ``JSONDecodeError`` traceback.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read {what} {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"{what} {path} is not valid JSON: {exc}")


def _socket_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="Unix socket path of the study daemon",
    )


def _add_query_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="filter: scenario display name")
    parser.add_argument("--scheme", help="filter: scheme display name")
    parser.add_argument(
        "--experiment", help="filter: experiment kind (replay/fluctuation/failure/drift)"
    )
    parser.add_argument("--suite", help="filter: suite name tag")
    parser.add_argument("--study", help="filter: study name tag")
    parser.add_argument("--seed", type=int, help="filter: suite seed tag")
    parser.add_argument("--repetition", type=int, help="filter: repetition tag")


def _queried(parser: argparse.ArgumentParser, args):
    """Open the warehouse and apply the shared filters (clean CLI errors)."""
    from repro.study.warehouse import ResultWarehouse, WarehouseError

    store = ResultWarehouse(args.warehouse)
    if not store.exists():
        parser.error(f"no results warehouse at {args.warehouse}")
    try:
        results = store.query(
            scenario=args.scenario,
            scheme=args.scheme,
            experiment=args.experiment,
            suite=args.suite,
            study=args.study,
            seed=args.seed,
            repetition=args.repetition,
        )
    except WarehouseError as exc:
        parser.error(str(exc))
    return store, results


def _run_and_report(parser: argparse.ArgumentParser, args) -> int:
    """Load a study document, run or resume it, print, warehouse, save."""
    from repro.study.results import CheckpointError, StudyCheckpoint
    from repro.study.study import Study
    from repro.study.warehouse import WarehouseError

    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint (the file to resume from)")
    if args.checkpoint and not args.resume and StudyCheckpoint(args.checkpoint).exists():
        parser.error(
            f"checkpoint {args.checkpoint} already exists; pass --resume to "
            "continue it, or remove the file to start over"
        )
    document = _load_json_file(parser, args.spec, "study document")
    try:
        study = Study(document)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    run_kwargs = dict(
        engine=_engine_from(args),
        warehouse=args.warehouse,
    )
    try:
        if args.resume:
            print(f"Resuming {len(study)} experiment cell(s) from {args.checkpoint} ...")
            results = study.resume(args.checkpoint, **run_kwargs)
        else:
            print(f"Running {len(study)} experiment cell(s) ...")
            results = study.run(checkpoint=args.checkpoint, **run_kwargs)
    except (CheckpointError, WarehouseError) as exc:
        # A corrupt, foreign or held store is one clean line, not a
        # traceback; cell failures still traceback as usual.
        parser.error(str(exc))
    print(results.to_table(title=f"Study results ({args.spec})"))
    notes = []
    if args.warehouse:
        notes.append(f"Warehoused {len(results)} record(s) in {args.warehouse}")
    if args.out:
        notes.append(f"Wrote {len(results)} records to {results.save(args.out)}")
    if notes:
        print("\n" + "\n".join(notes))
    return 0


def _cmd_query(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study query",
        description=(
            "Filter and aggregate a results warehouse: mean +/- confidence "
            "half-width over the grouped records, percentile columns "
            "recomputed from the pooled stored series."
        ),
    )
    parser.add_argument("warehouse", help="path to a results warehouse (JSONL)")
    _add_query_filters(parser)
    parser.add_argument(
        "--group-by",
        default="scenario,scheme,experiment",
        metavar="COLS",
        help=(
            "comma-separated group columns (record attributes scenario/"
            "scheme/experiment and tag keys suite/study/seed/repetition mix "
            "freely; default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--metric",
        default="mean",
        help="per-record metric aggregated as mean +/- half-width (default: %(default)s)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="two-sided confidence level of the half-width (default: %(default)s)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the aggregate rows as JSON"
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.confidence < 1.0:
        parser.error(f"--confidence must be in (0, 1), got {args.confidence}")
    store, results = _queried(parser, args)
    group_by = [column.strip() for column in args.group_by.split(",") if column.strip()]
    if not group_by:
        parser.error("--group-by needs at least one column")
    if args.json:
        rows = store.aggregate(
            results, group_by=group_by, metric=args.metric, confidence=args.confidence
        )
        print(json.dumps(rows, indent=2))
        return 0
    print(f"{len(results)} record(s) match")
    print(
        store.aggregate_table(
            results,
            group_by=group_by,
            metric=args.metric,
            confidence=args.confidence,
            title=f"Warehouse aggregate ({args.warehouse})",
        )
    )
    return 0


def _cmd_export(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study export",
        description=(
            "Export a results warehouse as a run_table-style flat CSV: one "
            "row per record, provenance columns + every metric column."
        ),
    )
    parser.add_argument("warehouse", help="path to a results warehouse (JSONL)")
    parser.add_argument("csv", help="output CSV path")
    _add_query_filters(parser)
    args = parser.parse_args(argv)
    store, results = _queried(parser, args)
    count = store.export_csv(args.csv, results)
    print(f"Wrote {count} row(s) to {args.csv}")
    return 0


def _cmd_serve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study serve",
        description=(
            "Start the long-lived study daemon: a Unix-socket service with "
            "a FIFO job queue and one warm LP/scenario/scheme cache shared "
            "across every submitted job."
        ),
    )
    _socket_option(parser)
    parser.add_argument(
        "--warehouse",
        metavar="PATH",
        help="default results warehouse jobs append to (a submit may override)",
    )
    parser.add_argument(
        "--spool-dir",
        metavar="DIR",
        help=(
            "directory job checkpoint names resolve under "
            "(default: <socket>.spool/ next to the socket)"
        ),
    )
    _add_engine_options(parser)
    args = parser.parse_args(argv)

    import signal
    import threading

    from repro.study.server import StudyServer

    server = StudyServer(
        args.socket,
        warehouse=args.warehouse,
        spool_dir=args.spool_dir,
        engine=_engine_from(args),
    )

    def _stop(signum, frame):  # noqa: ARG001 - signal handler signature
        print(
            f"\nStopping study daemon ({signal.Signals(signum).name}): "
            "cancelling jobs at the next cell boundary ...",
            flush=True,
        )
        server.stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    ready = threading.Event()

    def _announce() -> None:
        if ready.wait(timeout=30):
            print(
                f"Study daemon listening on {server.socket_path} "
                f"(spool: {server.spool_dir})",
                flush=True,
            )

    threading.Thread(target=_announce, daemon=True).start()
    try:
        server.serve_forever(ready=ready)
    except OSError as exc:
        # e.g. a live daemon already owns the socket path
        parser.error(str(exc))
    print("Study daemon stopped.")
    return 0


def _cmd_submit(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study submit",
        description=(
            "Submit a study spec or suite descriptor to a running study "
            "daemon and stream per-cell records back as they finish."
        ),
    )
    parser.add_argument("spec", help="path to a JSON study spec or suite descriptor")
    _socket_option(parser)
    parser.add_argument(
        "--checkpoint", metavar="NAME",
        help=(
            "checkpoint name, resolved under the daemon's spool directory "
            "(makes the job cancellable and resumable)"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume a cancelled/killed checkpointed job (needs --checkpoint)",
    )
    parser.add_argument(
        "--warehouse", metavar="PATH",
        help="results warehouse override for this job",
    )
    parser.add_argument("--out", help="write the full ResultSet JSON here")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint (the name the job ran with)")

    from repro.study.client import StudyClient, StudyServiceError

    spec = _load_json_file(parser, args.spec, "study document")

    def _progress(message: dict) -> None:
        if args.quiet:
            return
        mtype = message.get("type")
        if mtype == "accepted":
            print(
                f"Accepted as {message['job']}: {message['cells']} cell(s), "
                f"{message['queued_ahead']} job(s) queued ahead"
            )
        elif mtype == "record":
            record = message["record"]
            print(
                f"  [{message['completed']}/{message['total']}] "
                f"{record['scenario']} / {record['scheme']} / {record['experiment']}"
            )

    client = StudyClient(args.socket)
    try:
        outcome = client.submit(
            spec,
            checkpoint=args.checkpoint,
            resume=args.resume,
            warehouse=args.warehouse,
            on_message=_progress,
        )
    except StudyServiceError as exc:
        parser.error(str(exc))
    if outcome.status == "cancelled":
        print(
            f"Job {outcome.job} cancelled after "
            f"{outcome.summary.get('completed', 0)}/{outcome.summary.get('total', '?')} "
            f"cell(s): {outcome.summary.get('reason', 'cancelled')} "
            "(re-submit with --resume to finish it)"
        )
        return 1
    summary = outcome.summary
    print(outcome.results.to_table(title=f"Study results ({outcome.job})"))
    print(
        f"\n{summary.get('records', len(outcome.results))} record(s) in "
        f"{summary.get('wall_seconds', 0.0):.2f}s -- {summary.get('lp_solves')} "
        f"LP solve(s), {summary.get('trainings')} training(s) "
        "(0/0 = fully served from the daemon's warm caches)"
    )
    if args.out:
        path = outcome.results.save(args.out)
        print(f"Wrote {len(outcome.results)} records to {path}")
    return 0


def _cmd_status(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study status",
        description=(
            "Show a running study daemon's uptime, warm-cache sizes, and "
            "per-job progress (as JSON)."
        ),
    )
    _socket_option(parser)
    parser.add_argument("--job", metavar="JOB", help="show only this job")
    args = parser.parse_args(argv)

    from repro.study.client import StudyClient, StudyServiceError

    try:
        status = StudyClient(args.socket).status(job=args.job)
    except StudyServiceError as exc:
        parser.error(str(exc))
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_cancel(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study cancel",
        description=(
            "Cancel a queued or running job on the study daemon; finished "
            "cells stay checkpointed, so the job is resumable with "
            "'submit --resume'."
        ),
    )
    parser.add_argument("job", help="job id (as printed by submit/status)")
    _socket_option(parser)
    args = parser.parse_args(argv)

    from repro.study.client import StudyClient, StudyServiceError

    try:
        reply = StudyClient(args.socket).cancel(args.job)
    except StudyServiceError as exc:
        parser.error(str(exc))
    print(f"Job {args.job}: {reply.get('type', 'cancelled')}")
    return 0


def _cmd_study(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study",
        description=(
            "Expand and run a study spec or suite descriptor "
            f"(subcommands: {', '.join(_COMMANDS)})."
        ),
    )
    parser.add_argument(
        "spec", nargs="?", help="path to a JSON study spec or suite descriptor"
    )
    _add_run_options(parser)
    parser.add_argument(
        "--list-scenarios", action="store_true", help="print registered scenarios and exit"
    )
    parser.add_argument(
        "--list-schemes", action="store_true", help="print registered scheme kinds and exit"
    )
    args = parser.parse_args(argv)

    if args.list_scenarios:
        from repro.datasets import available_scenarios

        print("\n".join(available_scenarios()))
        return 0
    if args.list_schemes:
        from repro.study.spec import available_schemes

        print("\n".join(available_schemes()))
        return 0
    if not args.spec:
        parser.error("a spec file is required (or --list-scenarios / --list-schemes)")
    return _run_and_report(parser, args)


#: Subcommands by first argument; anything else is the
#: ``python -m repro.study doc.json`` form (a document file literally named
#: like a subcommand would need ``./``).
_COMMANDS = {
    "query": _cmd_query,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    return command(argv[1:]) if command else _cmd_study(argv)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
