"""The five workloads, their timed regions and their output checks.

Every workload is a closed loop with one caller and gets its inputs from
``--seed`` alone (scenario, training and perturbation seeds).  The program
is driven through its public API with its defaults: explicit arguments are
only the ones a *cold* or a *warm* run needs by definition (a fresh engine,
or the shared caches), never a backend, a pool width or a ``REPRO_*`` knob.

A run is: import the program (``host.import_s``), build the workload's
fixture :data:`SETUP_REPEATS` times (``setup_s`` = import + the median
build), run the timed loops against the last fixture until ``--seconds``
have passed, and check every output outside the timed intervals.  With
tracing on, repetitions alternate untraced / traced, so one run yields the
per-layer numbers and the tracing overhead against its own untraced half.

The machine the benchmark was sized on runs at two speeds (README,
"Noise"), so a run also reads the machine's speed as it goes
(:meth:`Run.probe`) and every reported time is its sample scaled to the
reference speed by the probes around it (:meth:`Run.normalised`).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

from perfbench import host
from perfbench.contract import END_TO_END, PER_LAYER
from perfbench.trace import SPANS_WITH_CHILDREN, Tracer

__all__ = ["WORKLOADS", "Run", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Fixture builds per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Scheme kinds whose replay is a forward pass (their ``mean`` is pinned by
#: the reference; LP schemes' split ratios are deliberately not).
NEURAL_KINDS = frozenset({"figret", "dote", "teal"})

#: Copies of one warm grid's records in the campaign warehouse the read-back
#: repetitions query: fixed, so a read-back costs the same however many
#: study repetitions the time budget allowed.
CAMPAIGN_COPIES = 10

#: Seconds between two probes of the machine's speed inside a timed loop
#: (operations longer than this get one after every round).
PROBE_EVERY = 0.1

#: FIGRET : des_te decisions per block of ``online_decide``.
DECIDE_BLOCK = (40, 3)

#: Per-workload sizes, full and ``--quick``.  Quick sizes exist for the
#: contract test: same code paths on a 4-pod mesh whose LP solves in ~1 ms.
SIZES = {
    "wan_cold": dict(scenario="geant_small", intervals=72, max_intervals=6, epochs=6),
    "dc_train": dict(scenario="meta_tor_db_small", intervals=72, max_intervals=6, epochs=7),
    "warm_grid": dict(
        scenarios=("meta_tor_db_small", "pfabric_small"), intervals=80, max_intervals=8, epochs=3
    ),
    "service_warm": dict(scenario="pfabric_small", intervals=120, max_intervals=12, epochs=3),
    "online_decide": dict(scenario="geant_small", intervals=100, epochs=3),
}
TINY = dict(scenario="meta_pod_db_small", intervals=60, max_intervals=2, epochs=1)
QUICK_SIZES = {
    "wan_cold": TINY,
    "dc_train": TINY,
    "warm_grid": dict(TINY, scenarios=("meta_pod_db_small", "meta_pod_web_small")),
    "service_warm": TINY,
    "online_decide": TINY,
}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _percentile(samples: list[float], q: float = 50) -> float:
    """The q-th percentile (the median by default); 0.0 of nothing."""
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def _digits(value) -> float:
    """Ten significant digits: what reference.json keeps (it pins to 1e-7)."""
    return float(f"{float(value):.10g}")


def _raw(samples: list[tuple[float, int]]) -> list[float]:
    return [seconds for seconds, _ in samples]


class Run:
    """State of one workload run: samples, counters, checks, scratch space."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        quick: bool,
        workdir: Path,
        reference: dict | None = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.workdir = workdir
        self.sizes = (QUICK_SIZES if quick else SIZES)[workload]
        self.tracer = Tracer(workload) if trace else None
        self.reference = reference
        self.new_reference: dict[str, dict] = {}
        #: Speed probes in the order taken (ms); see :meth:`probe`.
        self.probes: list[float] = []
        self._probed_at = 0.0
        #: name -> ``(seconds, index of the last probe before it)`` per
        #: operation, split by whether tracing was on.
        self.import_samples: list[tuple[float, int]] = []
        self.setup_samples: list[tuple[float, int]] = []
        self.untraced: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.traced: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.traced_reps: dict[str, int] = defaultdict(int)
        #: traced round -> index of the last probe before it.
        self.round_probe: dict[int, int] = {}
        self.counters: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traced_wall = 0.0
        self.tracing = False
        self._cleanups: list = []
        # Filled by the workload: which samples are the end-to-end metrics,
        # and which loop's traced / untraced medians give the tracing overhead.
        self.primary = ""
        self.secondary = ""
        self.loop_phase = ""
        self.round_ops = 1  # primary operations in one repetition of loop_phase

    # ------------------------------------------------------------------ #
    # Scratch space and cleanup
    # ------------------------------------------------------------------ #
    def subdir(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir(parents=True)
        return path

    def defer(self, cleanup) -> None:
        """Run ``cleanup()`` when the workload ends, whatever happened."""
        self._cleanups.append(cleanup)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        while self._cleanups:
            self._cleanups.pop()()

    # ------------------------------------------------------------------ #
    # Set-up and timed loops
    # ------------------------------------------------------------------ #
    def probe(self) -> None:
        """Read the machine's speed (``host.probe_ms``, ~11 ms)."""
        self.probes.append(host.probe_ms())
        self._probed_at = time.perf_counter()

    def speed(self, probe_index: int) -> float:
        """Reference speed over the machine's, between two consecutive probes."""
        around = self.probes[probe_index : probe_index + 2]
        return host.PROBE_REFERENCE_MS / (sum(around) / len(around))

    def normalised(self, samples: list[tuple[float, int]]) -> list[float]:
        """Seconds at reference speed: each sample scaled by the probes around it."""
        return [seconds * self.speed(index) for seconds, index in samples]

    def import_program(self) -> None:
        """Import the program in stages, with a speed probe after each."""
        for stage, module in enumerate(("numpy", "scipy.optimize", "repro.study")):
            start = time.perf_counter()
            importlib.import_module(module)
            self.import_samples.append((time.perf_counter() - start, max(stage - 1, 0)))
            self.probe()

    def setup(self, build, dispose=None):
        """Build the fixture several times; time each; keep the last."""
        fixture = None
        for index in range(1 if self.quick else SETUP_REPEATS):
            if index and dispose is not None:
                dispose(fixture)
            start = time.perf_counter()
            fixture = build(index)
            self.setup_samples.append((time.perf_counter() - start, len(self.probes) - 1))
            self.probe()
        return fixture

    def sample(self, name: str, seconds: float) -> None:
        store = self.traced if self.tracing else self.untraced
        store[name].append((seconds, len(self.probes) - 1))

    def count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))

    def subphase(self, name: str) -> None:
        """Label the spans that follow ``<phase>/<name>`` within the running repetition."""
        if self.tracing:
            self.tracer.phase = f"{self.tracer.phase.partition('/')[0]}/{name}"

    def repeat(self, phases, budget: float, min_reps: int = 3, untraced=()) -> None:
        """Run rounds of the ``(name, body, check)`` phases until ``budget`` is spent.

        A round calls each phase's ``body(index)`` once, in order, so the
        samples of every phase are spread over the whole timed region (a
        phase run in one short burst is at the mercy of whichever speed the
        machine had just then).  Each call is one sample of its phase;
        ``check(result)`` follows it, outside the timed interval, and no
        result is retained (memory must not grow with the number of rounds
        the budget allowed).  A body that raises is an operation that
        failed: it is reported, ``check`` gets ``None``, and the loop goes
        on.  Between rounds, at most every :data:`PROBE_EVERY` seconds, the
        machine's speed is probed.  With tracing, odd rounds run traced,
        except the phases named in ``untraced``.
        """
        tracer = self.tracer
        if self.quick:
            min_reps = 1
        if tracer is not None:
            min_reps = max(2 * min_reps - 2, 2)  # at least (min_reps - 1) of each kind
        began = time.perf_counter()
        index = 0
        while index < min_reps or time.perf_counter() - began < budget:
            traced_round = tracer is not None and index % 2 == 1
            if traced_round:
                self.round_probe[index] = len(self.probes) - 1
            for phase, body, check in phases:
                self.tracing = traced_round and phase not in untraced
                if self.tracing:
                    tracer.phase, tracer.repetition = phase, index
                    tracer.install()
                result = None
                start = time.perf_counter()
                try:
                    result = body(index)
                except Exception as exc:  # the benchmark must report, not die
                    self.problems.append(f"{phase}[{index}] raised {type(exc).__name__}: {exc}")
                else:
                    self.sample(phase, time.perf_counter() - start)
                if self.tracing:
                    tracer.uninstall()
                    self.traced_reps[phase] += 1
                    self.traced_wall += time.perf_counter() - start
                check(result)
            self.tracing = False
            index += 1
            if time.perf_counter() - self._probed_at >= PROBE_EVERY:
                self.probe()
        self.probe()

    # ------------------------------------------------------------------ #
    # Checks
    # ------------------------------------------------------------------ #
    def expect(self, ok: bool, message: str) -> None:
        """One attempted operation; failed (with ``message``) unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def check_cell(self, where: str, index: int, record) -> None:
        """One study cell is one operation; see README, "Output checks"."""
        import numpy as np

        problems = []
        metrics = record.metrics
        if not metrics or not all(math.isfinite(float(v)) for v in metrics.values()):
            problems.append("non-finite metric")
        if record.experiment in ("replay", "fluctuation"):
            series = np.asarray(record.series, dtype=float)
            if series.size == 0 or float(series.min()) < 1.0 - 1e-6:
                problems.append("normalised MLU below 1 (beats the omniscient optimum)")
        pinned = {}
        if record.experiment == "replay" and record.result is not None:
            pinned["optimal_mlus"] = [_digits(v) for v in record.result.optimal_mlus]
        if record.spec["scheme"].get("kind") in NEURAL_KINDS:
            pinned["mean"] = _digits(metrics["mean"])
        key = str(index)
        self.new_reference[key] = pinned
        if self.reference is not None:
            want = self.reference.get(key, {})
            if "optimal_mlus" in want and "optimal_mlus" in pinned:
                got, ref = pinned["optimal_mlus"], want["optimal_mlus"]
                if len(got) != len(ref) or not np.allclose(got, ref, rtol=1e-7, atol=0.0):
                    problems.append("optimal MLUs differ from reference.json")
            if "mean" in want and "mean" in pinned:
                if not math.isclose(pinned["mean"], want["mean"], rel_tol=1e-3):
                    problems.append(
                        f"mean {pinned['mean']!r} differs from reference {want['mean']!r}"
                    )
        self.expect(not problems, f"{where} cell {index}: {'; '.join(problems)}")

    def check_study(self, where: str, results, expected_cells: int) -> None:
        """Every expected cell of one study is attempted; missing ones fail."""
        records = list(results) if results is not None else []
        for index in range(expected_cells):
            if index < len(records):
                self.check_cell(where, index, records[index])
            else:
                self.expect(False, f"{where} cell {index}: missing")

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics: medians of speed-normalised samples."""
        values = {
            "setup_s": sum(self.normalised(self.import_samples))
            + _percentile(self.normalised(self.setup_samples)),
            "primary_ms_p50": _ms(_percentile(self.normalised(self.untraced[self.primary]))),
            "secondary_ms_p50": _ms(_percentile(self.normalised(self.untraced[self.secondary]))),
            "peak_rss_mb": host.peak_rss_mb(),
        }
        return {name: values[name] for name, _, _, _ in END_TO_END}

    def per_layer(self, extra: dict[str, float]) -> dict[str, float]:
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        scale = {index: self.speed(probe) for index, probe in self.round_probe.items()}
        covered = 0.0
        for (phase, span), row in self.tracer.aggregate(scale).items():
            # "block/figret" is a sub-phase of the repetitions of "block".
            reps = self.traced_reps.get(phase.partition("/")[0])
            if not reps:
                continue
            covered += row["raw_self_s"]
            values[f"{span}.count"] += row["count"] / reps
            values[f"{span}.self_s"] += row["self_s"] / reps
            if span in SPANS_WITH_CHILDREN:
                values[f"{span}.total_s"] += row["total_s"] / reps
        for name, samples in self.counters.items():
            reducer = sum if name.startswith("study.server.") else statistics.mean
            values[name] = float(reducer(samples))
        lookups = sum(self.counters["solvers.cache.hits"]) + sum(
            self.counters["solvers.cache.misses"]
        )
        if lookups:
            values["solvers.cache.hit_ratio"] = sum(self.counters["solvers.cache.hits"]) / lookups
        if self.traced_wall:
            values["trace.coverage_ratio"] = covered / self.traced_wall
        loop = self.loop_phase
        if self.traced[loop] and self.untraced[loop]:
            values["trace.overhead_ratio"] = _percentile(
                self.normalised(self.traced[loop])
            ) / _percentile(self.normalised(self.untraced[loop]))
        seconds = sum(_raw(self.untraced[loop]))
        values["bench.primary_per_s"] = (
            self.round_ops * len(self.untraced[loop]) / seconds if seconds else 0.0
        )
        values["bench.primary_raw_ms_p50"] = _ms(_percentile(_raw(self.untraced[self.primary])))
        values["bench.secondary_raw_ms_p50"] = _ms(_percentile(_raw(self.untraced[self.secondary])))
        values["host.import_s"] = sum(_raw(self.import_samples))
        values["host.cpu_s"] = time.process_time()
        values["host.probe_ms_p50"] = _percentile(self.probes)
        values.update(extra)
        return values


# ---------------------------------------------------------------------- #
# Specs
# ---------------------------------------------------------------------- #
def _scenario(run, name: str | None = None) -> dict:
    return {
        "name": name or run.sizes["scenario"],
        "seed": run.seed,
        "num_intervals": run.sizes["intervals"],
    }


def _neural(run, kind: str, **params) -> dict:
    return {"kind": kind, "epochs": run.sizes["epochs"], "seed": run.seed, **params}


def _fluctuation(run, alpha: float, **params) -> dict:
    return {"kind": "fluctuation", "alpha": alpha, "seed": run.seed, **params}


def _sweep(*values) -> dict:
    return {"sweep": list(values)}


def _count_cells(specs) -> int:
    from repro.study import expand_spec

    return sum(len(expand_spec(spec)) for spec in specs)


# ---------------------------------------------------------------------- #
# wan_cold / dc_train
# ---------------------------------------------------------------------- #
def _wan_cold_spec(run) -> dict:
    return {
        "scenario": _scenario(run),
        "scheme": _sweep(
            _neural(run, "figret", robustness_weight=0.15, learning_rate=5e-4),
            {"kind": "des_te"},
            {"kind": "pred_te"},
        ),
        "perturbation": _sweep({"kind": "none"}, _fluctuation(run, 1.0)),
        "max_intervals": run.sizes["max_intervals"],
    }


def _dc_train_spec(run) -> dict:
    return {
        "scenario": _scenario(run),
        "scheme": _sweep(
            _neural(run, "figret", robustness_weight=0.05, label="FIGRET rw=0.05"),
            _neural(run, "figret", robustness_weight=0.15, label="FIGRET rw=0.15"),
            _neural(run, "figret", robustness_weight=0.5, label="FIGRET rw=0.5"),
            _neural(run, "dote"),
        ),
        "perturbation": _sweep({"kind": "none"}, _fluctuation(run, 1.0)),
        "max_intervals": run.sizes["max_intervals"],
    }


def _cold_study(scratch: Path, spec: dict):
    """Spec dict -> ResultSet, nothing shared with any earlier study."""
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache, count_lp_solves
    from repro.study import Study

    first_record: list[float] = []

    def on_cell(_index, _record) -> None:
        if not first_record:
            first_record.append(time.perf_counter())

    start = time.perf_counter()
    with count_lp_solves() as tally:
        engine = EvaluationEngine(cache=OptimalMLUCache())
        study = Study(spec)
        plan = study.plan(
            engine=engine,
            checkpoint=scratch / "study.ckpt",
            warehouse=scratch / "study.wh.jsonl",
        )
        results = study.execute(plan, on_cell=on_cell)
    return SimpleNamespace(
        scratch=scratch,
        results=results,
        first_record_s=first_record[0] - start,
        lp_solves=tally.count,
        cache=engine.cache,
    )


def _cold_workload(run: Run, spec_of) -> None:
    from repro.study import ResultWarehouse, Study

    spec = spec_of(run)
    cells = _count_cells([spec])
    # The warm-up is the workload's own grid on a 4-pod mesh: it pays the
    # lazy imports and first-call costs of every code path the timed
    # studies take, and nothing they could reuse.
    tiny = spec_of(SimpleNamespace(seed=run.seed, sizes=QUICK_SIZES[run.workload]))
    run.setup(lambda index: _cold_study(run.subdir(f"warmup-{index}"), tiny))

    last = []

    def check(done) -> None:
        run.check_study("study", done.results if done else None, cells)
        if not done:
            return
        run.sample("first_record", done.first_record_s)
        run.count("solvers.lp_solves", done.lp_solves)
        run.count("solvers.cache.hits", done.cache.hits)
        run.count("solvers.cache.misses", done.cache.misses)
        run.count("study.cells", len(done.results))
        run.count("study.checkpoint.bytes", (done.scratch / "study.ckpt").stat().st_size)
        run.count("study.warehouse.bytes", (done.scratch / "study.wh.jsonl").stat().st_size)
        for stale in last:
            shutil.rmtree(stale.scratch)
        last[:] = [done]

    def study(index):
        return _cold_study(run.subdir(f"study-{index}"), spec)

    run.repeat([("study", study, check)], run.seconds)
    run.primary, run.secondary, run.loop_phase = "study", "first_record", "study"
    if last:
        (done,) = last
        resumed = Study(spec).resume(done.scratch / "study.ckpt")
        rows = ResultWarehouse(done.scratch / "study.wh.jsonl").export_csv(
            done.scratch / "rows.csv"
        )
        run.expect(
            resumed.to_json() == done.results.to_json() and rows == cells,
            "read-back: resumed ResultSet or CSV row count differs from what was written",
        )


def wan_cold(run: Run) -> None:
    _cold_workload(run, _wan_cold_spec)


def dc_train(run: Run) -> None:
    _cold_workload(run, _dc_train_spec)


# ---------------------------------------------------------------------- #
# warm_grid
# ---------------------------------------------------------------------- #
def _warm_grid_specs(run: Run) -> list[dict]:
    base = {
        "scenario": _sweep(*(_scenario(run, name) for name in run.sizes["scenarios"])),
        "scheme": _sweep(_neural(run, "figret"), _neural(run, "dote"), _neural(run, "teal")),
        "max_intervals": run.sizes["max_intervals"],
    }
    batched = dict(
        base,
        perturbation=_sweep(
            {"kind": "none"},
            _fluctuation(run, 1.0),
            _fluctuation(run, 1.0, worst_case=True),
            {"kind": "failure", "num_failures": 1, "num_trials": 2, "seed": run.seed},
        ),
    )
    chunked = dict(
        base,
        perturbation=_sweep({"kind": "none"}, _fluctuation(run, 1.0)),
        streaming=True,
        chunk_size=8,
    )
    return [batched, chunked]


def warm_grid(run: Run) -> None:
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache, count_lp_solves
    from repro.study import ResultWarehouse, Study

    specs = _warm_grid_specs(run)
    cells = _count_cells(specs)

    def _grid(fixture, **stores):
        return Study(
            specs, scheme_cache=fixture.schemes, scenario_cache=fixture.scenarios
        ).run(engine=fixture.engine, **stores)

    def build(index):
        """Train and solve the grid once, then write what the read-backs read:
        one complete checkpoint and a campaign warehouse of CAMPAIGN_COPIES grids."""
        fixture = SimpleNamespace(
            engine=EvaluationEngine(cache=OptimalMLUCache()), schemes={}, scenarios={}
        )
        fixture.first = _grid(fixture)
        fixture.stores = run.subdir(f"stores-{index}")
        fixture.written = _grid(fixture, checkpoint=fixture.stores / "grid.ckpt")
        fixture.campaign = ResultWarehouse(fixture.stores / "campaign.wh.jsonl")
        for _ in range(CAMPAIGN_COPIES):
            fixture.campaign.extend(fixture.written)
        return fixture

    warm = run.setup(build)
    cache, stores = warm.engine.cache, warm.stores
    want_json = warm.written.to_json()
    run.check_study("set-up grid", warm.first, cells)

    def study(index):
        scratch = run.subdir(f"study-{index}")
        before = (cache.hits, cache.misses)
        with count_lp_solves() as tally:
            results = _grid(
                warm, checkpoint=scratch / "grid.ckpt", warehouse=scratch / "grid.wh.jsonl"
            )
        return scratch, results, tally.count, before

    def check_study(rep) -> None:
        run.check_study("study", rep[1] if rep else None, cells)
        if not rep:
            return
        scratch, results, lp_solves, (hits, misses) = rep
        run.count("solvers.lp_solves", lp_solves)
        run.count("solvers.cache.hits", cache.hits - hits)
        run.count("solvers.cache.misses", cache.misses - misses)
        run.count("study.cells", len(results))
        run.count("study.checkpoint.bytes", (scratch / "grid.ckpt").stat().st_size)
        run.count("study.warehouse.bytes", (scratch / "grid.wh.jsonl").stat().st_size)
        shutil.rmtree(scratch)

    def readback(_index):
        resumed = Study(
            specs, scheme_cache=warm.schemes, scenario_cache=warm.scenarios
        ).resume(stores / "grid.ckpt", engine=warm.engine)
        warehouse = ResultWarehouse(warm.campaign.path)
        selected = warehouse.query(scheme="FIGRET", experiment="fluctuation")
        groups = warehouse.aggregate()
        rows = warehouse.export_csv(stores / "rows.csv")
        return resumed, len(selected), len(groups), rows

    def check_readback(rep) -> None:
        run.expect(
            rep is not None
            and rep[0].to_json() == want_json
            and rep[1] > 0
            and rep[2] > 0
            and rep[3] == CAMPAIGN_COPIES * cells,
            "readback: resumed ResultSet, query, aggregate or CSV row count is off",
        )

    run.repeat(
        [("study", study, check_study), ("readback", readback, check_readback)], run.seconds
    )
    run.primary, run.secondary, run.loop_phase = "study", "readback", "study"


# ---------------------------------------------------------------------- #
# service_warm
# ---------------------------------------------------------------------- #
def _service_specs(run: Run) -> list[dict]:
    def grid(alphas):
        return {
            "scenario": _scenario(run),
            "scheme": _sweep(_neural(run, "figret"), _neural(run, "dote")),
            "perturbation": _sweep(
                {"kind": "none"}, *(_fluctuation(run, alpha) for alpha in alphas)
            ),
            "max_intervals": run.sizes["max_intervals"],
        }

    return [grid((0.5, 1.0)), grid((1.0, 2.0))]


def _start_daemon(run: Run, specs: list[dict], index: int):
    """A real ``python -m repro.study serve`` with both grids submitted cold."""
    from repro.study import StudyClient

    scratch = run.subdir(f"daemon-{index}")
    # AF_UNIX paths cap out near 107 bytes and a checkout can sit anywhere:
    # take the shorter spelling (the daemon starts in this working directory).
    socket_path = min(str(scratch / "d.sock"), os.path.relpath(scratch / "d.sock"), key=len)
    env = host.workload_environment(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    with open(scratch / "daemon.log", "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.study", "serve", "--socket", socket_path],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    daemon = SimpleNamespace(process=process, socket=socket_path, cold=[])
    run.defer(lambda: _stop_daemon(daemon))
    StudyClient.wait_until_ready(socket_path, timeout=60)
    client = StudyClient(socket_path, timeout=120)
    daemon.cold = [client.submit(spec) for spec in specs]
    return daemon


def _stop_daemon(daemon) -> None:
    from repro.study import StudyClient, StudyServiceError

    process = daemon.process
    if process.poll() is None:
        try:
            StudyClient(daemon.socket, timeout=10).shutdown()
        except (StudyServiceError, OSError):
            process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _inprocess_twin(specs: list[dict]):
    """The same jobs through ``Study.run`` on a warm engine: no service."""
    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache
    from repro.study import Study

    engine, schemes, scenarios = EvaluationEngine(cache=OptimalMLUCache()), {}, {}

    def job(index):
        return Study(
            specs[index % len(specs)], scheme_cache=schemes, scenario_cache=scenarios
        ).run(engine=engine)

    for index in range(len(specs)):  # cold: trains and solves
        job(index)
    return job


def service_warm(run: Run) -> dict[str, float]:
    from repro.study import StudyClient

    specs = _service_specs(run)
    cells = _count_cells(specs[:1])
    daemon = run.setup(lambda index: _start_daemon(run, specs, index), dispose=_stop_daemon)
    client = StudyClient(daemon.socket, timeout=120)

    def job(index):
        records, terminal, first = {}, None, None
        span = run.tracer.span("study.client.submit") if run.tracing else nullcontext()
        start = time.perf_counter()
        with span:
            for message in client.submit_iter(specs[index % len(specs)]):
                kind = message.get("type")
                if kind == "record":
                    if first is None:
                        first = time.perf_counter()
                    records[message["index"]] = message["record"]
                elif kind in ("done", "cancelled", "failed"):
                    terminal = message
        return index, records, terminal, (first or time.perf_counter()) - start

    want = [
        {index: record.to_dict() for index, record in outcome.records_by_index.items()}
        for outcome in daemon.cold
    ]
    for outcome in daemon.cold:
        run.expect(
            outcome.status == "done" and len(outcome.results) == cells,
            f"cold job {outcome.job}: {outcome.status} with {len(outcome.results)} records",
        )

    def check(result) -> None:
        if result is None or result[2] is None:
            run.expect(False, "a job raised or got no terminal message")
            return
        index, records, terminal, first_record_s = result
        run.sample("first_record", first_record_s)
        run.expect(
            terminal.get("type") == "done" and records == want[index % len(specs)],
            f"job[{index}]: ended {terminal.get('type')!r} or records differ from the cold job's",
        )
        run.count("study.server.lp_solves", terminal.get("lp_solves", 0))
        run.count("study.server.trainings", terminal.get("trainings", 0))

    phases = [("job", job, check)]
    if run.tracer is not None:
        # A traced run also times the in-process twin, in the same rounds
        # (so both see the same machine), itself never traced.
        phases.append(("inprocess", _inprocess_twin(specs), lambda results: None))
    run.repeat(phases, run.seconds, untraced={"inprocess"})
    run.primary, run.secondary, run.loop_phase = "job", "first_record", "job"

    jobs = run.normalised(run.untraced["job"])
    extra = {
        "study.server.peak_rss_mb": host.process_peak_rss_mb(daemon.process.pid),
        "study.client.job_ms_p95": _ms(_percentile(jobs, 95)),
        "study.client.first_record_ms_p95": _ms(
            _percentile(run.normalised(run.untraced["first_record"]), 95)
        ),
    }
    if run.tracer is not None:
        inprocess = _ms(_percentile(run.normalised(run.untraced["inprocess"])))
        extra["study.inprocess_job_ms_p50"] = inprocess
        extra["study.service_overhead_ms"] = _ms(_percentile(jobs)) - inprocess
    return extra


# ---------------------------------------------------------------------- #
# online_decide
# ---------------------------------------------------------------------- #
def online_decide(run: Run) -> dict[str, float]:
    import numpy as np

    from repro.evaluation.engine import EvaluationEngine
    from repro.solvers.lp import OptimalMLUCache
    from repro.study import Study
    from repro.traffic.windows import build_history_windows

    reference = _scenario(run)

    def build(_index):
        engine = EvaluationEngine(cache=OptimalMLUCache())
        study = Study()
        scenario = study.scenario(reference)
        schemes = [
            study.trained_scheme({"scenario": reference, "scheme": spec}, engine)
            for spec in (_neural(run, "figret"), {"kind": "des_te"})
        ]
        _, test = scenario.split()
        windows, _ = build_history_windows(test.flat_demands(), scenario.history_len)
        histories = [np.ascontiguousarray(window) for window in windows]
        return SimpleNamespace(paths=scenario.paths, schemes=schemes, histories=histories)

    fixture = run.setup(build)
    histories = fixture.histories
    sd_to_path = fixture.paths.sd_to_path
    cursor = [0, 0]

    def block(_index):
        decisions = []
        for which, (name, scheme, count) in enumerate(
            zip(("figret", "lp"), fixture.schemes, DECIDE_BLOCK)
        ):
            run.subphase(name)
            for _ in range(1 if run.quick else count):
                history = histories[cursor[which] % len(histories)]
                cursor[which] += 1
                start = time.perf_counter()
                configuration = scheme.configure(history)
                run.sample(name, time.perf_counter() - start)
                decisions.append(configuration.split_ratios)
        return decisions

    def validate(decisions) -> None:
        # Right after each block, outside every decision's timed interval,
        # so that a run never holds more than one block of ratios.
        if decisions is None:
            run.expect(False, "a block of decisions raised")
            return
        for ratios in decisions:
            sums = sd_to_path @ ratios
            ok = bool(ratios.min() >= 0.0 and np.abs(sums - 1.0).max() <= 1e-6)
            run.expect(ok, f"decision {run.attempted}: ratios negative or not summing to 1")

    run.repeat([("block", block, validate)], run.seconds)
    run.primary, run.secondary, run.loop_phase = "figret", "lp", "block"
    run.round_ops = 2 if run.quick else sum(DECIDE_BLOCK)

    extra = {
        "scheme.figret_decide_ms_p99": _ms(
            _percentile(run.normalised(run.untraced["figret"]), 99)
        ),
        "scheme.lp_decide_ms_p90": _ms(_percentile(run.normalised(run.untraced["lp"]), 90)),
    }
    if run.tracer is not None:
        rows = run.tracer.aggregate()
        configure = rows.get(("block/figret", "scheme.configure"), {}).get("total_s", 0.0)
        packaging = rows.get(("block/figret", "te.config"), {}).get("total_s", 0.0)
        if configure:
            extra["scheme.te_config_share"] = packaging / configure
    return extra


WORKLOADS = {
    "wan_cold": wan_cold,
    "dc_train": dc_train,
    "warm_grid": warm_grid,
    "service_warm": service_warm,
    "online_decide": online_decide,
}


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
def _load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _write_reference(workload: str, seed: int, block: dict) -> None:
    """Merge one block in; one line per (workload, seed) keeps diffs readable."""
    reference = _load_reference()
    reference.setdefault(workload, {})[str(seed)] = block
    lines = []
    for name in sorted(reference):
        blocks = ",\n".join(
            f'  "{key}": {json.dumps(reference[name][key], sort_keys=True, separators=(",", ":"))}'
            for key in sorted(reference[name], key=int)
        )
        lines.append(f' "{name}": {{\n{blocks}\n }}')
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    workdir: Path,
    out: Path | None = None,
    write_reference: bool = False,
) -> dict:
    """Run one workload in this process and return everything it measured.

    ``workdir`` must exist and is the only place written to, apart from
    ``out`` (the full result and, traced, ``<name>.trace.json``) and
    ``reference.json`` under ``write_reference``.
    """
    # Quick sizes have no reference block (they exist to check the contract),
    # and a run that records the reference is not checked against the old one.
    reference = None
    if not quick and not write_reference:
        reference = _load_reference().get(name, {}).get(str(seed))
    run = Run(name, seed, seconds, trace, quick, workdir, reference)
    run.import_program()
    calibrations = 1 if quick else 5
    calib_before = host.calibrate(calibrations)
    try:
        extra = WORKLOADS[name](run) or {}
    finally:
        run.close()
    calib_after = host.calibrate(calibrations)
    noisy = host.is_noisy(calib_before, calib_after)

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "fingerprint": host.fingerprint(ROOT),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted if run.attempted else 1.0,
        "correct": run.attempted > 0 and run.failed == 0 and not run.problems,
        "problems": run.problems[:20],
        "reference_checked": reference is not None,
        "noisy": noisy,
        "calib_ms": {"before": calib_before, "after": calib_after},
        "end_to_end": run.end_to_end(),
        "samples": {
            "setups": len(run.setup_samples),
            "probe_ms": _summary([probe / 1e3 for probe in run.probes]),
            "primary_raw_ms": _summary(_raw(run.untraced[run.primary])),
            "secondary_raw_ms": _summary(_raw(run.untraced[run.secondary])),
        },
        "per_layer": None,
    }
    if run.tracer is not None:
        extra["host.calib_ms_before"] = _percentile(calib_before)
        extra["host.calib_ms_after"] = _percentile(calib_after)
        extra["host.noisy"] = float(noisy)
        result["per_layer"] = run.per_layer(extra)
    if write_reference and not quick and run.new_reference and result["correct"]:
        _write_reference(name, seed, run.new_reference)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        if run.tracer is not None:
            run.tracer.write(out / f"{name}.trace.json")
    return result


def _summary(samples: list[float]) -> dict:
    """Sample count, min, median, 90th percentile and max of raw seconds, in ms."""
    if not samples:
        return {"n": 0}
    return {
        "n": len(samples),
        "min": _ms(min(samples)),
        "p50": _ms(_percentile(samples)),
        "p90": _ms(_percentile(samples, 90)),
        "max": _ms(max(samples)),
    }
