"""What the benchmark records about the machine it ran on.

A host fingerprint (so numbers from different boxes are never compared
silently), a fixed calibration kernel timed before and after each workload
(so a noisy neighbour shows up as a flag instead of as a regression), and
the environment every workload process runs under.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

__all__ = [
    "THREAD_PINS",
    "COMPARABLE_KEYS",
    "workload_environment",
    "fingerprint",
    "calibrate",
    "PROBE_REFERENCE_MS",
    "probe_ms",
    "is_noisy",
    "peak_rss_mb",
    "process_peak_rss_mb",
]

#: Unpinned BLAS threads cost a 1.6 s first-repetition penalty and a 10-20%
#: spread on the 2-core box the benchmark was sized on.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def workload_environment(environ) -> dict[str, str]:
    """``environ`` with BLAS pinned and every ``REPRO_*`` knob removed.

    The program gets no knobs, so that a later change of a default (LP
    backend, pool widths, array backend) shows up in the numbers.
    """
    env = {key: value for key, value in environ.items() if not key.startswith("REPRO_")}
    env.update(THREAD_PINS)
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _blas() -> str:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def fingerprint(root: Path) -> dict:
    """Everything two result files must share before they are compared."""
    import numpy
    import scipy

    from repro.solvers.lp_backend import resolve_lp_backend

    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "lp_backend": resolve_lp_backend(None).name,
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
        "git_commit": _git_commit(root),
    }


#: Keys of the fingerprint that must match for two result files to be
#: comparable (the commit is what a comparison is *about*).
COMPARABLE_KEYS = (
    "cpu_model",
    "cpu_count",
    "python",
    "numpy",
    "scipy",
    "blas",
    "lp_backend",
    "thread_pins",
)


def _kernel(matmuls: int, additions: int) -> float:
    """A fixed mix of BLAS, elementwise numpy and interpreter work, in ms."""
    import numpy as np

    a = np.random.default_rng(0).random((192, 192))
    acc = 0.0
    start = time.perf_counter()
    for _ in range(matmuls):
        a = a @ a
        a /= np.abs(a).max()
        acc += float(a[0, 0])
    for i in range(additions):
        acc += i & 7
    return (time.perf_counter() - start) * 1e3


def calibrate(repeats: int = 5) -> list[float]:
    """Milliseconds of the ~45 ms calibration kernel, ``repeats`` times."""
    return [_kernel(60, 450_000) for _ in range(repeats)]


#: What :func:`probe_ms` reads on the undisturbed 2-core box the benchmark
#: was sized on.  Only a scale: it makes speed-normalised times read like
#: milliseconds on that box.
PROBE_REFERENCE_MS = 10.3


def probe_ms() -> float:
    """The machine's speed right now: a quarter of the calibration kernel."""
    return _kernel(15, 110_000)


def is_noisy(before: list[float], after: list[float]) -> bool:
    """Whether the machine changed speed under the workload.

    True when the two medians differ by more than 10%, or any of the
    samples exceeds 1.25x the median of all of them.
    """
    med_before, med_after = statistics.median(before), statistics.median(after)
    if abs(med_after - med_before) > 0.10 * min(med_before, med_after):
        return True
    samples = before + after
    return max(samples) > 1.25 * statistics.median(samples)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, 0.0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0
