"""Smoke-size self-test of the benchmark.

Usage: ``python3 perfbench/selftest.py [workload ...]`` (default: all three;
about a minute on a 2-core box).  For every workload, at ``--seconds 1``:

* a ``--trace 0`` and a ``--trace 1`` run pass their checks and print every
  metric ``BENCHMARK.json`` declares, with its unit, as the last line;
* the traced and untraced runs of one seed return identical answers;
* every reference-checked answer, deliberately corrupted, fails its check
  (so ``ok_frac`` drops below 1), and no other answer does;

and, once, that ``run.py`` exits non-zero without printing a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
from common import BENCH_DIR, OUT_DIR, ROOT

SMOKE = ["--seed", "7", "--seconds", "1"]


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def launch(workload: str, trace: str) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, *SMOKE, "--trace", trace],
        capture_output=True, text=True, timeout=run.DEADLINE_S + 10, cwd=ROOT,
    )
    if out.returncode != 0:
        raise AssertionError(f"run.py --trace {trace} exited {out.returncode}: {out.stderr[-800:]}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_workload(workload: str, spec: dict) -> None:
    for trace in ("0", "1"):
        lines, result = launch(workload, trace)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise AssertionError(f"result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"--trace {trace} failed its checks: {lines[:-1]}")
        units = {name: entry["unit"] for name, entry in result["metrics"].items()}
        if units != spec[trace]:
            raise AssertionError(f"--trace {trace} metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(units) ^ set(spec[trace]))}")
        if trace == "1":
            digests = next(line for line in lines if line.startswith("# answer digests:")).split()[3:]
            if len(digests) != 2 or digests[0] != digests[1]:
                raise AssertionError(f"traced and untraced answers differ: {digests}")

    command = [sys.executable, str(BENCH_DIR / "worker.py"), workload, *SMOKE, "--corrupt"]
    corrupted = json.loads(run.run_child(command, time.monotonic() + run.DEADLINE_S).splitlines()[-1])
    ok_frac = run.end_to_end(corrupted, [corrupted["setup_s"]])["ok_frac"]
    if not corrupted["corrupted"] or corrupted["failed"] != corrupted["corrupted"] or not ok_frac < 1.0:
        raise AssertionError(f"{corrupted['failed']} of {corrupted['corrupted']} corrupted answers "
                             f"failed their checks (ok_frac {ok_frac})")


def check_bare_directory() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "crd_tlr", *SMOKE, "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        raise AssertionError(f"bare directory run exited {out.returncode} with output {out.stdout!r}")


def main(argv: list[str]) -> int:
    spec = declared()
    checks = [(name, lambda name=name: check_workload(name, spec)) for name in (argv or spec["workloads"])]
    checks.append(("bare-directory", check_bare_directory))
    failed = 0
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
        except (AssertionError, run.RunError, subprocess.SubprocessError, StopIteration) as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"ok   {name} ({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
