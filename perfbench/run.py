"""perfbench command line: run, trace, compare.

    python perfbench/run.py                     # all five workloads, one set
    python perfbench/run.py --trace --sets 2    # + per-layer runs, two interleaved sets
    python perfbench/run.py --workload wan_cold --seed 7 --seconds 10 --trace 0
    python perfbench/run.py --compare A.json B.json
    python perfbench/run.py --update-benchmark-json

With ``--workload`` this process *is* the workload's fresh interpreter: it
runs it and prints, as its last line, the one-object JSON the benchmark
contract asks for (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Without it, every workload is started as such a
process in turn and the results are gathered into ``<out>/set-<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    # Started as a script, sys.path[0] is this directory, where trace.py
    # would shadow the standard library's module of that name.
    sys.path[0] = str(ROOT)

from perfbench import contract, host  # noqa: E402

#: Scratch space: inside the benchmark's own directory (a benchmark run may
#: write nowhere else) and ignored by git.
WORK = HERE / ".work"

UNITS = {name: unit for name, unit, *_ in contract.END_TO_END + contract.PER_LAYER}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(contract.WORKLOADS), help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7, help="feeds scenario, training and perturbation seeds (default 7)")
    parser.add_argument(
        "--seconds", type=float, default=contract.RUN_SECONDS,
        help=f"length of the timed region (default {contract.RUN_SECONDS})",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: install the span tracer and report per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true", help="tiny sizes (contract test); numbers mean nothing")
    parser.add_argument("--out", type=Path, help="keep full results (and trace.json files) in this directory")
    parser.add_argument("--sets", type=int, default=1, help="complete sets to run, interleaved per workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two set files")
    parser.add_argument("--write-reference", action="store_true", help="record this seed's outputs in reference.json")
    parser.add_argument("--update-benchmark-json", action="store_true", help="rewrite BENCHMARK.json from contract.py")
    return parser


# ---------------------------------------------------------------------- #
# One workload, this process
# ---------------------------------------------------------------------- #
def _print_result(result: dict) -> None:
    flags = [flag for flag in ("noisy", "quick") if result[flag]]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['attempted']} operations, {result['failed']} failed "
        f"(failed_share {result['failed_share']:.4f})"
        + (f"  [{', '.join(flags)}]" if flags else "")
    )
    for problem in result["problems"]:
        print(f"   ! {problem}")
    samples = result["samples"]
    notes = {
        "setup_s": f"import + median of {samples['setups']} set-ups",
        "primary_ms_p50": _note(samples["primary_raw_ms"]),
        "secondary_ms_p50": _note(samples["secondary_raw_ms"]),
    }
    for name, value in result["end_to_end"].items():
        print(f"   {name:<34} {value:>14.4f} {UNITS[name]:<6} {notes.get(name, '')}")
    print(f"   {'(speed probe)':<34} {'':>14} {'ms':<6} {_note(samples['probe_ms'])}")
    if result["per_layer"] is not None:
        for name, value in result["per_layer"].items():
            if value:
                print(f"   {name:<34} {value:>14.6f} {UNITS[name]}")


def _note(summary: dict) -> str:
    if not summary.get("n"):
        return "no samples"
    return (
        f"n={summary['n']}; raw: min {summary['min']:.3f} p50 {summary['p50']:.3f} "
        f"p90 {summary['p90']:.3f} max {summary['max']:.3f}"
    )


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # This process is the workload's interpreter: pin BLAS and drop every
    # REPRO_* knob before numpy is imported.
    environment = host.workload_environment(os.environ)
    os.environ.clear()
    os.environ.update(environment)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import run_workload

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            args.quick,
            workdir,
            out=args.out,
            write_reference=args.write_reference,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_result(result)
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": max(result["attempted"], 1),
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0


# ---------------------------------------------------------------------- #
# Every workload, one fresh interpreter each
# ---------------------------------------------------------------------- #
def _child(args, workload: str, trace: int, out: Path) -> dict | None:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    command += ["--quick"] * args.quick + ["--write-reference"] * args.write_reference
    done = subprocess.run(command, cwd=ROOT)  # the child scrubs its own environment
    try:
        return json.loads((out / f"{workload}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print(f"perfbench: {workload} (trace {trace}) exited {done.returncode} without a result", file=sys.stderr)
        return None


def run_suite(args) -> int:
    out = (args.out or WORK / time.strftime(f"out-%Y%m%d-%H%M%S-{os.getpid()}")).resolve()
    out.mkdir(parents=True, exist_ok=True)
    sets = [{"seed": args.seed, "seconds": args.seconds, "workloads": {}} for _ in range(args.sets)]
    ok = True
    began = time.perf_counter()
    # Workload-major, so that slow drift of the machine hits every set alike.
    for workload in contract.WORKLOADS:
        for number, record in enumerate(sets, start=1):
            result = _child(args, workload, 0, out / f"set-{number}")
            if result is not None and args.trace:
                traced = _child(args, workload, 1, out / f"set-{number}" / "traced")
                if traced is not None:
                    result["per_layer"] = traced["per_layer"]
                    result["noisy"] = result["noisy"] or traced["noisy"]
                    result["correct"] = result["correct"] and traced["correct"]
                else:
                    result["correct"] = False
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"]
            record.setdefault("fingerprint", result.pop("fingerprint"))
            record["workloads"][workload] = result
    for number, record in enumerate(sets, start=1):
        path = out / f"set-{number}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        noisy = [name for name, result in record["workloads"].items() if result["noisy"]]
        print(f"set {number}: {path}" + (f"  NOISY: {', '.join(noisy)}" if noisy else ""))
    print(f"{args.sets} set(s) in {time.perf_counter() - began:.1f} s; results in {out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------- #
# Compare two sets
# ---------------------------------------------------------------------- #
def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in (path_a, path_b))
    differing = [
        key for key in host.COMPARABLE_KEYS
        if a.get("fingerprint", {}).get(key) != b.get("fingerprint", {}).get(key)
    ]
    if differing or (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("REFUSING TO COMPARE: the two files were not measured alike.")
        for key in differing:
            print(f"  {key}: {a['fingerprint'].get(key)!r} != {b['fingerprint'].get(key)!r}")
        for key in ("seed", "seconds"):
            if a[key] != b[key]:
                print(f"  {key}: {a[key]!r} != {b[key]!r}")
        return 2
    print(f"A = {path_a} ({a['fingerprint']['git_commit'][:12]})")
    print(f"B = {path_b} ({b['fingerprint']['git_commit'][:12]})")
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in contract.WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            print(f"{workload:<14} missing from {'A' if workload not in a['workloads'] else 'B'}")
            worse += 1
            continue
        result_a, result_b = a["workloads"][workload], b["workloads"][workload]
        noisy = result_a["noisy"] or result_b["noisy"]
        for name, unit, better, bound in contract.END_TO_END:
            value_a, value_b = result_a["end_to_end"][name], result_b["end_to_end"][name]
            ratio = value_b / value_a if value_a else float("inf")
            regressed = ratio > 1 + bound if better == "lower" else ratio < 1 - bound
            worse += regressed
            verdict = "WORSE" if regressed else "ok"
            if noisy:
                verdict += " (a set was flagged noisy: unresolved)"
            print(
                f"{workload:<14} {name:<18} {value_a:>12.4f} {value_b:>12.4f} "
                f"{ratio:>8.3f} {bound:>6.2f}  {verdict}  [{unit}, {better} is better, base A]"
            )
        for label, result in (("A", result_a), ("B", result_b)):
            if result["failed"]:
                print(f"{workload:<14} {label}: {result['failed']} of {result['attempted']} operations failed")
                worse += 1
    return 1 if worse else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.update_benchmark_json:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(contract.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
