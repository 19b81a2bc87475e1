"""Serving throughput — micro-batched sharded serving vs cold single queries.

The acceptance gate of the serving PR: on a mixed workload (two distinct
covariances, 64 one-sided TLR queries), submitting everything concurrently
to a :class:`repro.serve.QueryBroker` — which routes each Sigma to a warm
shard and micro-batches same-Sigma requests into ``probability_batch``
sweeps — must be **>= 3x** faster end-to-end than answering the queries
with one cold :func:`repro.mvn_probability` call each (a fresh runtime and
a fresh factorization per request, the way a naive service loop would),
while every served probability stays **bit-identical** to a direct warm
:meth:`repro.solver.Model.probability` call with the same seed.

The served path runs first in every repeat, and every repeat builds and
drains a fresh broker, so shard start-up and the per-shard factorizations
are inside the measured window.  The TLR method makes factorization the
dominant per-request setup cost — exactly the cost a serving layer exists
to amortize (the paper's large-scale configuration).

The full workload (``n_samples=200``, micro-batches of up to 16) is
lane-aligned, so served micro-batches sweep in cross-box tiles while each
direct reference call sweeps one box in per-box tiles (see
:mod:`repro.core.pmvn`): the bit-parity check therefore also pins the two
sweep layouts to each other.  The record's ``fusion`` section lists the
layouts the served path used.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import append_record, gate_record, save_table, time_paths
from repro import mvn_probability
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.serve import QueryBroker, ServeConfig
from repro.solver import MVNSolver, SolverConfig
from repro.utils.reporting import Table

#: acceptance threshold of the serving PR: micro-batched serving vs a loop
#: of cold single queries on a mixed multi-Sigma workload
SERVING_SPEEDUP_GATE = 3.0

FULL = dict(n=400, n_queries=64, n_sigmas=2, n_samples=200, method="tlr",
            n_shards=2, max_batch=16, repeats=2)
# n_samples=60 is deliberately lane-misaligned: every batch stays per-box
QUICK = dict(n=25, n_queries=8, n_sigmas=2, n_samples=60, method="dense",
             n_shards=2, max_batch=4, repeats=1)

#: QMC seed shared by every query — queries against one covariance then
#: share a batch key and micro-batch together
SEED = 3


def workload(n: int, n_sigmas: int, n_queries: int, seed: int = 11):
    """The mixed workload: ``n_queries`` CDF-style boxes over ``n_sigmas`` fields.

    Each covariance is a unit-variance exponential-kernel field on the same
    grid with a different correlation range (distinct content, so distinct
    fingerprints); queries cycle round-robin over the covariances — the
    worst case for per-request factorization, the intended case for
    fingerprint-routed shards — with a random one-sided upper limit each.

    Returns ``(sigmas, queries)`` with ``queries`` a list of
    ``(sigma_index, a, b)`` triples.
    """
    if n_sigmas < 2 or n_queries < 2 * n_sigmas:
        raise ValueError("the serving gate needs a mixed workload: n_sigmas >= 2 "
                         "and several queries per covariance")
    side = int(np.ceil(np.sqrt(n)))
    locations = Geometry.regular_grid(side, side).locations[:n]
    sigmas = [
        build_covariance(ExponentialKernel(1.0, 0.1 + 0.05 * index), locations, nugget=1e-6)
        for index in range(n_sigmas)
    ]
    rng = np.random.default_rng(seed)
    queries = [
        (index % n_sigmas, np.full(n, -np.inf), rng.uniform(0.5, 2.5, n))
        for index in range(n_queries)
    ]
    return sigmas, queries


def run(quick: bool = False) -> dict:
    """Time served vs cold singles, check parity, return the gate record."""
    shape = QUICK if quick else FULL
    solver_config = SolverConfig(method=shape["method"], n_samples=shape["n_samples"])
    serve_config = ServeConfig(n_shards=shape["n_shards"], worker_mode="thread",
                               max_batch=shape["max_batch"], batch_window=0.002)
    sigmas, queries = workload(shape["n"], shape["n_sigmas"], shape["n_queries"])

    def served():
        with QueryBroker(serve_config, solver_config) as broker:
            futures = [broker.submit(a, b, sigmas[index], rng=SEED) for index, a, b in queries]
            return [future.result() for future in futures], broker.stats()

    def cold_singles():
        cfg = solver_config
        return [
            mvn_probability(a, b, sigmas[index], method=cfg.method, n_samples=cfg.n_samples,
                            tile_size=cfg.tile_size, accuracy=cfg.accuracy, qmc=cfg.qmc,
                            backend=cfg.backend, rng=SEED)
            for index, a, b in queries
        ]

    timings, results = time_paths({"served": served, "cold_singles": cold_singles},
                                  shape["repeats"])
    served_results, stats = results["served"][-1]

    # warm direct Model calls: the bit-parity reference for the served path
    with MVNSolver(solver_config) as solver:
        models = [solver.model(sigma) for sigma in sigmas]
        reference = [models[index].probability(a, b, rng=SEED) for index, a, b in queries]
    bit_identical = all(
        served.probability == direct.probability and served.error == direct.error
        for served, direct in zip(served_results, reference)
    )
    served_modes = sorted(
        {str((result.details.get("serve") or {}).get("fusion")) for result in served_results}
    )

    speedup = timings["cold_singles"]["min"] / timings["served"]["min"]
    return gate_record(
        "serving_throughput", quick=quick, threshold=SERVING_SPEEDUP_GATE, value=speedup,
        passed=bit_identical and (quick or speedup >= SERVING_SPEEDUP_GATE),
        detail={
            "metric": "end-to-end speedup, served vs cold singles",
            "workload": dict(shape, seed=SEED),
            "serving": {"worker_mode": serve_config.worker_mode, "stats": stats.as_dict()},
            "paths": {
                name: dict(timing, queries_per_second=shape["n_queries"] / timing["min"])
                for name, timing in timings.items()
            },
            "speedup": speedup,
            "parity": {"served_bit_identical": bit_identical},
            "fusion": {"served_modes": served_modes},
        },
    )


def test_serving_throughput(benchmark):
    """Micro-batched serving >= 3x over cold singles, bit-identical results."""
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    append_record(record)
    detail = record["detail"]

    table = Table(
        ["path", "elapsed (s)", "queries/s"],
        title=f"serving vs cold singles — {FULL['n_queries']} queries, {FULL['n_sigmas']} "
              f"Sigmas, n={FULL['n']}, N={FULL['n_samples']}, {FULL['method']}, "
              f"{FULL['n_shards']} shards",
    )
    for name, data in detail["paths"].items():
        table.add_row([name, data["min"], data["queries_per_second"]])
    table.add_row(["speedup", record["value"], ""])
    save_table(table, "serving_throughput")
    print()
    print(table.render())
    stats = detail["serving"]["stats"]
    print(f"batches={stats['batches']} mean_batch_size={stats['mean_batch_size']:.1f} "
          f"batch_fill_ratio={stats['batch_fill_ratio']:.2f}")

    assert detail["parity"]["served_bit_identical"], (
        "served results diverged from direct Model.probability calls"
    )
    # the full workload is lane-aligned, so auto-fusion must have engaged
    # (a straggler micro-batch of one box legitimately stays interleaved)
    assert "fused" in detail["fusion"]["served_modes"], detail["fusion"]
    # every distinct Sigma must have been factorized exactly once, on the
    # shard the fingerprint routing assigned it to
    total_factorizations = sum(s["factorize_count"] for s in stats["shards"])
    assert total_factorizations == FULL["n_sigmas"], stats["shards"]
    assert record["value"] >= SERVING_SPEEDUP_GATE, (
        f"serving speedup only {record['value']:.2f}x (gate: {SERVING_SPEEDUP_GATE}x)"
    )
