"""The contract between perfbench, ``BENCHMARK.json`` and its driver.

No timing asserts: every workload runs at ``--quick`` sizes, in this
process, and what is checked is *which* metrics come out, that every
operation passed its output checks, and that nothing was written outside
the scratch directory handed in.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import contract, run
from perfbench.workloads import run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END_NAMES = {name for name, _, _, _ in contract.END_TO_END}
PER_LAYER_NAMES = {name for name, _, _ in contract.PER_LAYER}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Where tools other than the benchmark write while the tests run.
NOT_OURS = {".git", ".pytest_cache", ".hypothesis", "__pycache__", ".coverage"}


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    """Every file under ``root`` with its size and mtime."""
    found = {}
    for path in root.rglob("*"):
        if path.is_file() and not NOT_OURS.intersection(path.relative_to(root).parts):
            stat = path.stat()
            found[str(path)] = (stat.st_size, stat.st_mtime_ns)
    return found


def test_benchmark_json_is_the_rendered_contract():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == contract.benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declared[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in declared["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in declared["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60


@pytest.mark.parametrize("workload", list(contract.WORKLOADS))
def test_quick_workload_emits_the_declared_metrics(workload, tmp_path):
    before = _tree(ROOT)
    work = tmp_path / "work"
    work.mkdir()
    result = run_workload(workload, seed=7, seconds=0.2, trace=True, quick=True, workdir=work)
    assert result["problems"] == []
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0 and result["failed_share"] == 0
    assert set(result["end_to_end"]) == END_TO_END_NAMES
    assert set(result["per_layer"]) == PER_LAYER_NAMES
    assert all(math.isfinite(v) and v > 0 for v in result["end_to_end"].values())
    assert all(math.isfinite(v) and v >= 0 for v in result["per_layer"].values())
    # The traced half of the run saw the layers, from outside.
    assert result["per_layer"]["trace.coverage_ratio"] > 0.5
    assert _tree(ROOT) == before


def test_command_line_prints_the_contract_object_and_cleans_up():
    before = _tree(ROOT)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "online_decide",
         "--quick", "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == RESULT_KEYS
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == END_TO_END_NAMES
    assert all(set(metric) == {"value", "unit"} for metric in last["metrics"].values())
    assert _tree(ROOT) == before


def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wan_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def _set_file(path: Path, scale: float = 1.0, **fingerprint) -> str:
    host = {key: "same" for key in ("cpu_model", "cpu_count", "python", "numpy", "scipy",
                                    "blas", "lp_backend", "thread_pins", "git_commit")}
    host.update(fingerprint)
    workloads = {
        workload: {
            "noisy": False, "attempted": 10, "failed": 0,
            "end_to_end": {
                name: 100.0 * (scale if better == "lower" else 1 / scale)
                for name, _, better, _ in contract.END_TO_END
            },
        }
        for workload in contract.WORKLOADS
    }
    path.write_text(json.dumps(
        {"seed": 7, "seconds": 10, "fingerprint": host, "workloads": workloads}
    ))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _set_file(tmp_path / "a.json")
    assert run.compare(base, _set_file(tmp_path / "same.json", scale=1.05)) == 0
    assert run.compare(base, _set_file(tmp_path / "slow.json", scale=1.5)) == 1
    assert "WORSE" in capsys.readouterr().out
    assert run.compare(base, _set_file(tmp_path / "other.json", cpu_model="another")) == 2
    assert "REFUSING" in capsys.readouterr().out
