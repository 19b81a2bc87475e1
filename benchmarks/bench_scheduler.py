"""Scheduler policy gate — best policy vs FIFO on a multi-Sigma PMVN graph.

The acceptance gate of the scheduler-aware-runtime PR sweeps every
scheduling policy of :mod:`repro.runtime.scheduler` over a **multi-Sigma
mixed dense/TLR** PMVN workload — several covariances of different sizes
factorized and integrated concurrently, the shape a batch/serving
deployment feeds the runtime — using the deterministic
:class:`~repro.distributed.simulator.SchedulerSimulator` (the *real*
scheduler objects decide every placement; a task whose inputs were
produced on another worker pays latency + bytes / bandwidth).  It checks:

* **speedup** — the best policy's simulated makespan must beat FIFO by at
  least **1.3x** at 8 workers (quick mode skips the gate, not the sweep);
* **replay determinism** — simulating the same graph twice under the same
  policy yields the identical makespan and event sequence;
* **numerical parity** — a real (threaded) PMVN evaluation returns
  bit-identical probability and error estimates under every policy:
  scheduling reorders execution only within the freedom the dependency
  edges allow, so it must never change results.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import append_record, gate_record, save_table
from repro.distributed import ClusterSpec, build_pmvn_task_graph
from repro.distributed.pmvn_model import KernelRates
from repro.distributed.simulator import SchedulerSimulator
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.solver import MVNSolver, SolverConfig
from repro.utils.reporting import Table

#: acceptance threshold: FIFO makespan / best policy makespan
SCHEDULER_SPEEDUP_GATE = 1.3

#: canonical policy names swept by the benchmark (FIFO is the baseline)
SCHEDULER_POLICIES = ("fifo", "prio", "locality", "blevel", "worksteal")

#: information modes swept for the duration-aware critical-path policy
_INFO_MODES = ("exact", "estimated", "blind")

#: cross-worker fetch model: per-core cache/NUMA traffic on a shared-memory
#: node (a 64x64 tile is ~32 KiB, so a fetch costs a few tens of µs)
_FETCH_BANDWIDTH_GBS = 1.0
_FETCH_LATENCY_US = 5.0

#: simulated worker pool (the gate is specified at 8 workers)
N_WORKERS = 8

#: box/QMC seed of the real-execution parity suite
SEED = 3


def _mixed_specs(quick: bool) -> list[dict]:
    """The multi-Sigma suite: one dense mid-size field, two TLR fields."""
    if quick:
        return [
            dict(n=256, n_samples=256, tile_size=64, method="tlr", chain_block=128),
            dict(n=192, n_samples=192, tile_size=64, method="dense", chain_block=96),
            dict(n=256, n_samples=192, tile_size=64, method="tlr", chain_block=96),
        ]
    return [
        dict(n=2048, n_samples=2048, tile_size=64, method="tlr", chain_block=256),
        dict(n=1024, n_samples=1024, tile_size=64, method="dense", chain_block=128),
        dict(n=1536, n_samples=1536, tile_size=64, method="tlr", chain_block=192),
    ]


def workload(quick: bool) -> list:
    """The task graph: several PMVN problems merged into one DAG.

    Each covariance contributes its full tiled pipeline (Cholesky panels,
    triangular solves, GEMM updates, QMC sweep blocks); dependency indices
    are offset so the merged list is one valid ``SimTask`` graph.  Homes
    follow each problem's block-cyclic tile ownership mapped onto the pool.
    """
    cluster = ClusterSpec(n_nodes=N_WORKERS)
    rates = KernelRates()
    merged: list = []
    for i, spec in enumerate(_mixed_specs(quick)):
        graph = build_pmvn_task_graph(cluster=cluster, rates=rates, **spec)
        offset = len(merged)
        for task in graph:
            task.deps = [d + offset for d in task.deps]
            task.name = f"S{i}:{task.name}"
        merged.extend(graph)
    return merged


def _simulate(tasks, policy: str, information_mode: str = "exact"):
    return SchedulerSimulator(
        n_workers=N_WORKERS, policy=policy, information_mode=information_mode,
        fetch_bandwidth_gbs=_FETCH_BANDWIDTH_GBS, fetch_latency_us=_FETCH_LATENCY_US,
    ).run(tasks)


def _parity_suite(quick: bool) -> dict[str, dict]:
    """Real threaded executions: every policy must agree bit-for-bit."""
    n = 64 if quick else 144
    side = int(np.ceil(np.sqrt(n)))
    geom = Geometry.regular_grid(side, side)
    sigma = build_covariance(ExponentialKernel(1.0, 0.2), geom.locations[:n], nugget=1e-6)
    rng = np.random.default_rng(SEED)
    a = np.full(n, -np.inf)
    b = rng.uniform(0.5, 2.5, n)

    out: dict[str, dict] = {}
    config = SolverConfig(method="dense", n_samples=200 if quick else 500)
    for policy in SCHEDULER_POLICIES:
        with MVNSolver(config, n_workers=4, policy=policy) as solver:
            result = solver.model(sigma).probability(a, b, rng=SEED)
        out[policy] = {"probability": result.probability, "error": result.error}
    return out


def run(quick: bool = False) -> dict:
    """Simulate every policy, replay the best, check parity; return the record."""
    tasks = workload(quick)

    policies: dict[str, dict] = {}
    for policy in SCHEDULER_POLICIES:
        result = _simulate(tasks, policy)
        policies[policy] = {
            "makespan_s": result.makespan,
            "fetch_s": result.fetch_seconds,
            "fetches": result.fetches,
            "steals": result.steals,
            "parallel_efficiency": result.parallel_efficiency,
        }
    fifo = policies["fifo"]["makespan_s"]
    for data in policies.values():
        data["speedup_vs_fifo"] = fifo / data["makespan_s"]
    best_policy = min(policies, key=lambda p: policies[p]["makespan_s"])
    best_speedup = policies[best_policy]["speedup_vs_fifo"]

    first, second = _simulate(tasks, best_policy), _simulate(tasks, best_policy)
    replay_identical = first.makespan == second.makespan and first.events == second.events

    parity = _parity_suite(quick)
    bit_identical = all(data == parity["fifo"] for data in parity.values())

    return gate_record(
        "scheduler_policies", quick=quick, threshold=SCHEDULER_SPEEDUP_GATE, value=best_speedup,
        passed=bool(replay_identical and bit_identical
                    and (quick or best_speedup >= SCHEDULER_SPEEDUP_GATE)),
        detail={
            "metric": "FIFO makespan / best policy makespan, simulated",
            "workload": {
                "n_tasks": len(tasks),
                "n_workers": N_WORKERS,
                "fetch_bandwidth_gbs": _FETCH_BANDWIDTH_GBS,
                "fetch_latency_us": _FETCH_LATENCY_US,
            },
            "best_policy": best_policy,
            "replay_identical": replay_identical,
            "bit_identical_across_policies": bit_identical,
            "policies": policies,
            # how much of blevel's win survives model estimates
            "blevel_information_modes": {
                mode: {"makespan_s": _simulate(tasks, "blevel", mode).makespan}
                for mode in _INFO_MODES
            },
            "parity": parity,
        },
    )


def test_scheduler_policies(benchmark):
    """Best policy >= 1.3x over FIFO; deterministic replay; bit parity."""
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    append_record(record)
    detail = record["detail"]

    table = Table(
        ["policy", "makespan (s)", "speedup vs fifo", "fetches", "steals", "efficiency"],
        title=f"scheduling policies, {detail['workload']['n_tasks']} tasks, {N_WORKERS} workers",
    )
    for policy, data in detail["policies"].items():
        table.add_row([policy, data["makespan_s"], data["speedup_vs_fifo"],
                       data["fetches"], data["steals"], data["parallel_efficiency"]])
    save_table(table, "scheduler_policies")
    print()
    print(table.render())

    assert detail["replay_identical"], "same policy + same graph must replay identically"
    assert detail["bit_identical_across_policies"], (
        "policies diverged numerically: " + repr(detail["parity"])
    )
    assert record["value"] >= SCHEDULER_SPEEDUP_GATE, (
        f"best policy {detail['best_policy']!r} only {record['value']:.2f}x "
        f"over FIFO (gate: {SCHEDULER_SPEEDUP_GATE}x)"
    )
    assert record["passed"]
