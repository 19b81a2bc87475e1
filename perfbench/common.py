"""Helpers shared by the benchmark's processes: paths, environment, clocks,
memory, statistics and run provenance.

Only the standard library is imported at module level, so the launcher can
use this module before it knows whether the package under test imports at
all.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: the checkout the benchmark measures (``perfbench/..``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: run artefacts (traces, per-op tables); ignored by git
OUT_DIR = ROOT / ".perfbench_out"
#: failure messages echoed into a result (all failures are counted)
MAX_MESSAGES = 5
WORKLOADS = ("crd_tlr", "serve_gateway", "update_stream")

#: one BLAS/OpenMP thread per process: the paper's model is a task runtime
#: over sequential kernels, and with the default two OpenBLAS threads the
#: same TLR detections run 1.8x slower with a 20% spread on a 2-core box
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_KERNEL_THREADS": "1",
}


def package_present() -> bool:
    """Whether the checkout holds the package sources the benchmark runs."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    Threads are pinned, the package is imported from the checkout's
    ``src``, and caller-set ``REPRO_*`` selections are dropped so every run
    measures the package defaults.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def check_package_origin(module) -> None:
    """Refuse to measure a ``repro`` imported from anywhere but this checkout."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")


class Stopwatch:
    """Accumulates wall time over explicitly started/paused stretches.

    Set-up time excludes the benchmark's own input generation: the
    generator runs between ``pause()`` and ``resume()``.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self._start: float | None = None

    def resume(self) -> None:
        if self._start is None:
            self._start = time.perf_counter()

    def pause(self) -> None:
        if self._start is not None:
            self.total += time.perf_counter() - self._start
            self._start = None

    def elapsed(self) -> float:
        """Accumulated seconds, including a stretch still running."""
        running = time.perf_counter() - self._start if self._start is not None else 0.0
        return self.total + running

    def seconds(self) -> float:
        self.pause()
        return self.total


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def current_rss_mb() -> float:
    """Current resident set of this process, in MB (0 where unavailable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def machine_probe_ms() -> float:
    """Median of three timings of a fixed numpy + pure-Python workload.

    Timed at the start and end of every run so that a slow machine is
    visible beside any metric it leaves unresolved.
    """
    import numpy as np

    def once() -> float:
        start = time.perf_counter()
        vec = np.arange(100_000, dtype=np.float64)
        for _ in range(20):
            vec = np.sqrt(vec * vec + 1.0)
        mat = np.full((160, 160), 1.0 / 160)
        for _ in range(10):
            mat = mat @ mat
        total = 0
        for i in range(200_000):
            total += i * i
        return (time.perf_counter() - start) * 1e3

    times = sorted(once() for _ in range(3))
    return times[1]


def tail_percentile(count: int, beyond: int = 10) -> int:
    """The highest whole percentile with at least ``beyond`` ops above it,
    never below the median (a run too short to have one reports p50)."""
    if count <= beyond:
        return 50
    return max(50, math.floor(100.0 * (count - beyond) / count))


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the ``ceil(pct/100 * n)``-th smallest value."""
    data = sorted(values)
    rank = max(1, math.ceil(pct * len(data) / 100.0))
    return data[rank - 1]


def source_digest() -> str:
    """SHA-256 over the package sources (stands in for a commit when the
    checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(backends: list[str]) -> dict:
    """What a result needs to be compared with another: code, machine, threads."""
    uname = platform.uname()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": {
            "node": uname.node,
            "system": f"{uname.system} {uname.release}",
            "arch": uname.machine,
            "python": sys.version.split()[0],
        },
        "nproc": affinity,
        "threads": {key: os.environ.get(key) for key in PINNED_THREADS},
        "available_backends": backends,
    }


def emit(payload: dict) -> None:
    """Print one JSON line (the inter-process protocol of the benchmark)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
