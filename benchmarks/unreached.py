"""Which ``def``s in ``src/`` does nothing the repository runs ever enter?

    python benchmarks/unreached.py        # ~7 min; CI's manual `unreached` job

Runs the examples, perfbench (untraced and traced), the ``benchmarks/`` tests,
``service_smoke.py`` and an LP-pooled CLI run with a ``sitecustomize.py``
first on ``PYTHONPATH``, so every process they start -- pool workers and
daemons included -- logs the code objects it enters; prints, per file, each
function none entered.  The two CLI smokes (``suite_cli_smoke.py``,
``crash_resume_smoke.py``) run once, under ``pytest benchmarks`` through
their tier-1 wrappers, whose subprocesses inherit the profiling
``PYTHONPATH``.  Unit tests are not part of the traffic: ROADMAP direction
``cut`` asks what only they reach.

Defs that only tests reach and that stay, and why:

* ``te.failures.reroute_around_failures`` -- the one-configuration
  reference the vectorised ``reroute_ratios_around_failures`` is tested
  against;
* ``OmniscientTE`` (and its ``omniscient`` builder) with ``oracle_demand``
  replay -- the oracle that pins window/normaliser alignment at exactly
  1.0;
* ``ResultWarehouse.sync`` -- repairs the crash window between a
  checkpoint append and its warehouse append, covered by
  ``tests/test_store_faults.py``;
* ``repro.pool._fall_back`` / ``fallbacks`` -- the LP pool's fallback when a
  pool cannot start or breaks mid-call, driven by ``tests/test_pool.py``'s
  fake executors;
* the ``submit`` / ``status`` / ``cancel`` commands of ``python -m
  repro.study``, the daemon's ``_handle_cancel`` and ``StudyClient.ping``
  / ``cancel`` -- daemon features the service tests drive.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Forked pool workers and SIGTERMed daemons never run atexit, so a code object
# is logged the first time it is seen, not at exit.  pytest-benchmark switches
# the profiler off inside benchmark(...) (PauseInstrumentation calls
# sys.setprofile(None)), so sys.setprofile is wrapped to refuse removal.
SITECUSTOMIZE = '''
import os, sys, threading
_src, _out, _seen = os.environ["UNREACHED_SRC"], os.environ["UNREACHED_OUT"], set()
def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            with open(f"{_out}/calls-{os.getpid()}.txt", "a") as log:
                log.write(f"{code.co_filename}:{code.co_firstlineno}\\n")
_setprofile = sys.setprofile
sys.setprofile = lambda hook: _setprofile(hook or _profile)
threading.setprofile(_profile)
_setprofile(_profile)
'''

FIGRET = {"kind": "figret", "epochs": 5, "robustness_weight": 0.1, "seed": 7}
FULL = {"scenario": {"sweep": ["meta_pod_db_small", "meta_pod_web_small"]},
        "scheme": {"sweep": [FIGRET, {"kind": "dote", "epochs": 5, "seed": 7}]},
        "max_intervals": 10}

PYTHON = [sys.executable]
STUDY = [*PYTHON, "-m", "repro.study"]
#: Everything the repository runs, from the repository root; {tmp} is scratch.
TRAFFIC = [
    *([*PYTHON, str(example)] for example in sorted(REPO.glob("examples/*.py"))),
    [*PYTHON, "perfbench/run.py", "--trace", "1", "--seconds", "2", "--out", "{tmp}/perfbench"],
    [*PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"],
    [*PYTHON, "benchmarks/service_smoke.py"],
    [*STUDY, "{tmp}/full.json", "--lp-workers", "2"],
    [*STUDY, "--list-scenarios"],
    [*STUDY, "--list-schemes"],
]


def report(entered: set[str]) -> None:
    defs = unreached = 0
    for path in sorted(SRC.rglob("*.py")):
        missing, lines = [], set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs += 1
                # A code object starts at its first decorator.
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                if f"{path}:{first}" not in entered:
                    missing.append((first, node.name, node.end_lineno - first + 1))
                    lines.update(range(first, node.end_lineno + 1))
        unreached += len(lines)
        if missing:
            print(f"\n{path.relative_to(REPO)}: {len(missing)} def(s), {len(lines)} lines")
            for first, name, length in sorted(missing):
                print(f"  {first:5d}  {name}  ({length})")
    print(f"\n{defs} defs in src/; never entered: {unreached} lines")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "calls").mkdir()
        Path(tmp, "site").mkdir()
        Path(tmp, "site", "sitecustomize.py").write_text(SITECUSTOMIZE)
        Path(tmp, "full.json").write_text(json.dumps(FULL))
        env = dict(os.environ, PYTHONPATH=f"{tmp}/site{os.pathsep}{SRC}", UNREACHED_SRC=str(SRC),
                   UNREACHED_OUT=f"{tmp}/calls", REPRO_BENCH_DIR=tmp)
        for command in TRAFFIC:
            print("+", " ".join(command), file=sys.stderr, flush=True)
            command = [part.replace("{tmp}", tmp) for part in command]
            if subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL).returncode:
                print("the command above failed: the scan is incomplete", file=sys.stderr)
                return 1
        logs = Path(tmp, "calls").glob("calls-*.txt")
        entered = {line for log in logs for line in log.read_text().splitlines()}
    report(entered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
