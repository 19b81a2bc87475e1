"""Benchmark entry point: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload {crd_tlr,serve_gateway,update_stream} \\
        --seed N --seconds S --trace {0,1}

Every workload runs in fresh processes (``worker.py``) with BLAS pinned to
one thread.  ``--seconds`` fixes the op count through each workload's
nominal rate, so op counts and memory high-water marks repeat exactly from
run to run.  With ``--trace 0`` the run reports the end-to-end metrics:
set-up is measured in six fresh processes, three at each end of the run,
and the median is reported.
With ``--trace 1`` it runs the workload once untraced and once traced (same
seed and inputs) and reports the per-layer metrics.  Human-readable report
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics' names
and units are those ``BENCHMARK.json`` declares.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from statistics import median

from common import (
    BENCH_DIR,
    PINNED_THREADS,
    ROOT,
    WORKLOADS,
    child_env,
    machine_probe_ms,
    nearest_rank,
    package_present,
    tail_percentile,
)

#: fresh set-up-only processes per ``--trace 0`` run before and after the
#: main one: three set-ups at each end of the run, so that the median of
#: the six (the mean of the middle two) spans the run rather than one
#: moment of it -- the host's speed swings last tens of seconds
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 3
#: wall-clock budget of one run (children included); a run must end within 180 s
DEADLINE_S = 170.0


class RunError(RuntimeError):
    pass


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def run_child(command: list[str], deadline: float) -> str:
    """Run one benchmark process to completion; returns its stdout.

    The child gets its own process group so that a timeout also stops the
    gateway server a ``serve_gateway`` worker started.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("run deadline exceeded")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{command[2]} exceeded the run deadline") from None
    finally:
        if proc.poll() is None:  # interrupted: take the whole group down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"{' '.join(command[1:4])} exited with code {proc.returncode}")
    return out


def worker(args, deadline: float, *, trace: bool = False, setup_only: bool = False) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    lines = run_child(command, deadline).strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunError(f"{args.workload} worker printed no result") from None


def warm_import(deadline: float) -> None:
    """Import the package once, untimed: compiles bytecode and warms the file
    cache so that every timed import in the run starts from the same state."""
    run_child([sys.executable, "-c", "import repro.serve.net, repro.solver"], deadline)


def end_to_end(main: dict, setups: list[float]) -> dict:
    latencies = main["latencies_ms"]
    pct = tail_percentile(len(latencies))
    return {
        "throughput_ops": len(latencies) / main["window_s"],
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": nearest_rank(latencies, pct),
        "setup_s": median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": (main["attempted"] - main["failed"]) / main["attempted"],
    }


def per_layer(traced: dict, untraced: dict, probes: list[float]) -> dict:
    """The per-layer metrics of one traced and one untraced run."""
    metrics = dict(traced["layers"]["metrics"])
    metrics["proc.import_s"] = traced["import_s"]
    metrics["proc.cpu_ms_per_op"] = traced["program_cpu_s"] / traced["ops"] * 1e3
    metrics["proc.machine_probe_ms"] = sum(probes) / len(probes)
    metrics["trace.overhead_frac"] = median(traced["latencies_ms"]) / median(untraced["latencies_ms"]) - 1.0
    return metrics


def report(args, runs: list[dict], probes: list[float], setups: list[float]) -> None:
    main = runs[-1]
    count = len(main["latencies_ms"])
    pct = tail_percentile(count)
    beyond = count - math.ceil(pct * count / 100)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# ops: {main['ops']} timed, tail = p{pct} of {count} ops ({beyond} beyond it)")
    print(f"# machine probe: {probes[0]:.2f} ms at start, {probes[1]:.2f} ms at end")
    if setups:
        print("# set-ups in run order (s): " + " ".join(f"{value:.4f}" for value in setups))
    for run in runs:
        if run.get("failures"):
            print(f"# failures ({run['failed']}): " + " | ".join(run["failures"]))
    print("# answer digests: " + " ".join(run["digest"] for run in runs))
    if "summary" in main:
        print("# summary: " + json.dumps(main["summary"], sort_keys=True))
    if "layers" in main:
        table = main["layers"]["table"]
        print("# self ms per op by layer: " + ", ".join(f"{k}={v:.3f}" for k, v in table.items()))
    print("# provenance: " + json.dumps(main["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not package_present():
        print("perfbench: no package sources under src/; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # the machine probe runs here, under the same thread pinning as the workers
    os.environ.update(PINNED_THREADS)
    declared = declared_metrics(args.trace)
    try:
        warm_import(deadline)
        probes = [machine_probe_ms()]
        setups: list[float] = []
        if args.trace:
            untraced = worker(args, deadline)
            traced = worker(args, deadline, trace=True)
            runs = [untraced, traced]
        else:
            setups += [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES_BEFORE)]
            runs = [worker(args, deadline)]
            setups.append(runs[0]["setup_s"])
            setups += [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES_AFTER)]
        probes.append(machine_probe_ms())
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report(args, runs, probes, setups)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    if not all(run["latencies_ms"] for run in runs):
        print(f"perfbench: no timed op succeeded ({failed} of {attempted} ops failed)", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced, probes)
        if args.workload != "serve_gateway":  # only the gateway enters the serving layers
            metrics.update((name, 0.0) for name in declared if name.startswith("serve."))
    else:
        metrics = end_to_end(runs[0], setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
