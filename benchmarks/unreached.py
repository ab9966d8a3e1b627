"""Which ``def``s in ``src/`` does nothing the repository runs ever enter?

    python benchmarks/unreached.py        # ~6 min; not a CI job

Runs the examples, perfbench (untraced and traced), the ``benchmarks/`` tests,
``service_smoke.py`` and CI's CLI smokes with a ``sitecustomize.py`` first on
``PYTHONPATH``, so every process they start -- pool workers and daemons
included -- logs the code objects it enters; prints, per file, each function
none entered.  Unit tests are not part of the traffic: ROADMAP direction
``cut`` asks what only they reach.
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
PREFIX = {"scenario": {"sweep": ["meta_pod_db_small", "meta_pod_web_small"]},
          "scheme": FIGRET, "max_intervals": 10}
FULL = dict(PREFIX, scheme={"sweep": [FIGRET, {"kind": "dote", "epochs": 5, "seed": 7}]})
SUITE = {"name": "scan", "seeds": [1, 2], "studies": [{"name": "both", "spec": FULL}]}

PYTHON = [sys.executable]
STUDY = [*PYTHON, "-m", "repro.study"]
#: Everything the repository runs, from the repository root; {tmp} is scratch.
TRAFFIC = [
    *([*PYTHON, str(example)] for example in sorted(REPO.glob("examples/*.py"))),
    [*PYTHON, "perfbench/run.py", "--trace", "1", "--seconds", "2", "--out", "{tmp}/perfbench"],
    [*PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"],
    [*PYTHON, "benchmarks/service_smoke.py"],
    [*STUDY, "suite", "{tmp}/suite.json", "--warehouse", "{tmp}/wh.jsonl", "--checkpoint", "{tmp}/suite.ckpt"],
    [*STUDY, "query", "{tmp}/wh.jsonl", "--group-by", "scheme,seed"],
    [*STUDY, "export", "{tmp}/wh.jsonl", "{tmp}/rows.csv"],
    [*STUDY, "{tmp}/prefix.json", "--checkpoint", "{tmp}/run.ckpt"],
    [*STUDY, "{tmp}/full.json", "--checkpoint", "{tmp}/run.ckpt", "--resume", "--cell-workers", "2",
     "--out", "{tmp}/results.json"],
    [*STUDY, "{tmp}/full.json", "--backend", "numpy32", "--lp-workers", "2", "--lp-backend", "scipy"],
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
        for name, value in (("prefix", PREFIX), ("full", FULL), ("suite", SUITE)):
            Path(tmp, f"{name}.json").write_text(json.dumps(value))
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
