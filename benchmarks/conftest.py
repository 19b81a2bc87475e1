"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
reproduction runs in pure Python on a single machine, the *measured* problem
sizes are scaled down from the paper's (documented per benchmark and in
EXPERIMENTS.md); the analytic models are then used to extrapolate to the
paper's node counts and dimensions where relevant.

All benchmarks write their tables/series to ``benchmarks/results/`` as both
``.txt`` (aligned, human-readable) and ``.csv``.

The seven perf gates (``bench_kernel_hotpath``, ``bench_serving_throughput``,
``bench_online_updates``, ``bench_pipeline``, ``bench_planner``,
``bench_scheduler``, ``bench_distributed_serving``) also share the three jobs
below: min-of-N timing (:func:`time_paths`), one stamped record per run
(:func:`gate_record`), and one append to ``BENCH_history.jsonl`` at the
repository root (:func:`append_record`).  Each gate file exposes
``run(quick=False)``; its pytest entry runs the full size and appends the
record, and ``test_perf_smoke.py`` runs every quick mode in tier-1.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.core.kernel_backend import available_backends
from repro.utils.reporting import Table

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
HISTORY = ROOT / "BENCH_history.jsonl"

#: number of worker threads used by the measured (non-model) benchmarks
N_WORKERS = min(8, os.cpu_count() or 1)

#: scale factor knobs: keep the default runs in the minutes range
SMALL_GRID = 20          # synthetic accuracy grids (paper: 200 x 200)
QMC_SIZES = (100, 1000, 4000)   # paper: 100 / 1,000 / 10,000
DIMENSIONS = (400, 900, 1600, 2500)   # paper: 4,900 ... 78,400


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf_smoke: quick-mode checks of the performance benchmark plumbing "
        "(select with `pytest -m perf_smoke`)",
    )


def save_table(table: Table, name: str) -> None:
    """Persist a results table as .txt and .csv under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table.render())
    table.to_csv(RESULTS_DIR / f"{name}.csv")


def save_text(text: str, name: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def min_spread(values) -> dict:
    """``{"min", "spread"}`` of repeated measurements; spread is max - min.

    Noise only ever slows a run down, so the minimum is the figure a gate
    compares and the spread says how far to trust it.
    """
    return {"min": min(values), "spread": max(values) - min(values)}


def time_paths(paths: dict, repeats: int) -> tuple[dict, dict]:
    """Time every path ``repeats`` times, in ``paths`` order within a repeat.

    A gate lists its candidate first, so the candidate absorbs the cold
    caches in every repeat (the online-update and pipeline gates list their
    baseline first instead).  Returns ``(timings, results)``: per path the
    :func:`min_spread` of its wall seconds and the list of its return values.
    """
    seconds: dict[str, list[float]] = {name: [] for name in paths}
    results: dict[str, list] = {name: [] for name in paths}
    for _ in range(repeats):
        for name, path in paths.items():
            start = time.perf_counter()
            results[name].append(path())
            seconds[name].append(time.perf_counter() - start)
    return {name: min_spread(values) for name, values in seconds.items()}, results


def commit() -> str:
    """``git rev-parse --short HEAD``, ``-dirty`` when tracked files differ.

    The gates' own outputs (the history and ``benchmarks/results/``) do not
    count as dirty, so consecutive gates on one commit stamp it alike.
    Outside a git checkout the stamp is ``unknown``.
    """
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    try:
        head = git("rev-parse", "--short", "HEAD")
        if head.returncode != 0:
            return "unknown"
        dirty = git("diff", "--quiet", "HEAD", "--", ".",
                    f":!{HISTORY.name}", ":!benchmarks/results").returncode != 0
    except OSError:  # no git executable
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty else "")


def gate_record(gate: str, *, quick: bool, threshold: float, value, passed,
                detail: dict, reason: str | None = None) -> dict:
    """One history row: the fixed keys every gate stamps, then its ``detail``.

    ``passed`` is ``True``, ``False`` or ``None``; ``None`` means the gate
    could not apply on this machine, and then ``reason`` must say why.
    """
    if passed is None and not reason:
        raise ValueError(f"{gate}: a record without a verdict needs a reason")
    return {
        "gate": gate,
        "commit": commit(),
        "machine": {"python": platform.python_version(), "platform": platform.platform()},
        "cores": os.cpu_count(),
        "backends": available_backends(),
        "quick": quick,
        "threshold": threshold,
        "value": value,
        "passed": passed,
        "reason": reason,
        "detail": detail,
    }


def append_record(record: dict, path: Path = HISTORY) -> None:
    """Append ``record`` to ``path`` as one JSON line; never rewrite a line."""
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
