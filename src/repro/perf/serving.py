"""Measured serving-throughput benchmark (the serve-subsystem perf gate).

:func:`run_serving_benchmark` replays a mixed many-caller workload — many
probability queries spread over several distinct covariances — through two
paths:

* **cold singles**: one :func:`repro.mvn_probability` call per query, the
  way a naive service loop would answer traffic (a fresh runtime and a
  fresh factorization per request);
* **served**: the same queries submitted concurrently to a
  :class:`repro.serve.QueryBroker`, which micro-batches them into
  ``probability_batch`` sweeps on sharded warm solvers.

The acceptance gate of the serving PR: on a mixed workload of at least two
distinct Sigmas and 64 queries, the served path must be **>= 3x** faster
end-to-end while every served probability stays **bit-identical** to a
direct warm :meth:`repro.solver.Model.probability` call with the same seed.
The measurement protocol follows :mod:`repro.perf.hotpath`: the candidate
(served) path runs first in every repeat and eats the cold caches, figures
are minima across repeats, and the broker is torn down and rebuilt per
repeat so its factorizations are *inside* the measured window.

The default workload uses the TLR method: compression makes factorization
the dominant per-request setup cost, which is exactly the cost a serving
layer exists to amortize (the paper's large-scale configuration).

A served micro-batch of lane-aligned queries (the default ``n_samples=200``
is) sweeps in cross-box tiles, while each direct reference call is a single
box in per-box tiles (see :mod:`repro.core.pmvn`), so the bit-parity check
also pins the two layouts to each other.  The record's ``fusion`` section
lists the layouts the served path used.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.serve import QueryBroker, ServeConfig
from repro.solver import MVNSolver, SolverConfig

__all__ = ["run_serving_benchmark", "serving_workload", "SERVING_SPEEDUP_GATE"]

#: acceptance threshold of the serving PR: micro-batched serving vs a loop
#: of cold single queries on a mixed multi-Sigma workload
SERVING_SPEEDUP_GATE = 3.0


def serving_workload(n: int, n_sigmas: int = 2, n_queries: int = 64, seed: int = 11):
    """The mixed workload: ``n_queries`` CDF-style boxes over ``n_sigmas`` fields.

    Each covariance is a unit-variance exponential-kernel field on the same
    grid with a different correlation range (distinct content, so distinct
    fingerprints); queries cycle round-robin over the covariances — the
    worst case for per-request factorization, the intended case for
    fingerprint-routed shards — with a random one-sided upper limit each.

    Returns ``(sigmas, queries)`` with ``queries`` a list of
    ``(sigma_index, a, b)`` triples.
    """
    from repro.kernels import ExponentialKernel, Geometry, build_covariance

    side = int(np.ceil(np.sqrt(n)))
    geom = Geometry.regular_grid(side, side)
    locations = geom.locations[:n]
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


def _run_served(sigmas, queries, solver_config, n_shards, max_batch, worker_mode, seed):
    """One served repeat: fresh broker, submit everything, gather, close."""
    config = ServeConfig(
        n_shards=n_shards, worker_mode=worker_mode, max_batch=max_batch,
        batch_window=0.002,
    )
    start = time.perf_counter()
    with QueryBroker(config, solver_config) as broker:
        futures = [
            broker.submit(a, b, sigmas[sigma_index], rng=seed)
            for sigma_index, a, b in queries
        ]
        results = [future.result() for future in futures]
        stats = broker.stats()
    return results, time.perf_counter() - start, stats


def _run_cold(sigmas, queries, solver_config: SolverConfig, seed):
    """One cold repeat: a fresh functional call (runtime + factorization) per query."""
    from repro import mvn_probability

    cfg = solver_config
    start = time.perf_counter()
    results = [
        mvn_probability(
            a, b, sigmas[sigma_index], method=cfg.method, n_samples=cfg.n_samples,
            tile_size=cfg.tile_size, accuracy=cfg.accuracy, qmc=cfg.qmc,
            backend=cfg.backend, rng=seed,
        )
        for sigma_index, a, b in queries
    ]
    return results, time.perf_counter() - start


def _direct_reference(sigmas, queries, solver_config, seed):
    """Warm direct Model calls: the bit-parity reference for the served path."""
    with MVNSolver(solver_config) as solver:
        models = [solver.model(sigma) for sigma in sigmas]
        return [
            models[sigma_index].probability(a, b, rng=seed)
            for sigma_index, a, b in queries
        ]


def run_serving_benchmark(
    n: int = 400,
    n_queries: int = 64,
    n_sigmas: int = 2,
    n_samples: int = 200,
    method: str = "tlr",
    n_shards: int = 2,
    max_batch: int = 16,
    worker_mode: str = "thread",
    repeats: int = 2,
    seed: int = 3,
    json_path: str | Path | None = None,
) -> dict:
    """Run the serving-throughput benchmark and return the result record.

    Parameters
    ----------
    n, n_queries, n_sigmas, n_samples, method
        Workload shape; the acceptance run uses the defaults (64 one-sided
        TLR queries over 2 distinct 400-dim covariances).  Smoke runs pass
        tiny sizes.
    n_shards, max_batch, worker_mode
        Serving configuration under test.
    repeats : int
        Timed repetitions per path (minima are reported); each served
        repeat builds and drains a fresh broker so factorization and
        shard start-up are inside the measurement.
    seed : int
        QMC seed shared by every query — queries against one covariance
        then share a batch key and micro-batch together.
    json_path : path, optional
        When given, the record is also written there as JSON.
    """
    if n_sigmas < 2 or n_queries < 2 * n_sigmas:
        raise ValueError("the serving gate needs a mixed workload: n_sigmas >= 2 "
                         "and several queries per covariance")
    solver_config = SolverConfig(method=method, n_samples=n_samples)
    sigmas, queries = serving_workload(n, n_sigmas=n_sigmas, n_queries=n_queries)

    served_elapsed: list[float] = []
    cold_elapsed: list[float] = []
    served_results = None
    stats = None
    for _ in range(repeats):
        # candidate first: the served path absorbs the cold numpy/BLAS caches
        served_results, elapsed, stats = _run_served(
            sigmas, queries, solver_config, n_shards, max_batch, worker_mode, seed
        )
        served_elapsed.append(elapsed)
        _, elapsed = _run_cold(sigmas, queries, solver_config, seed)
        cold_elapsed.append(elapsed)

    reference = _direct_reference(sigmas, queries, solver_config, seed)
    bit_identical = all(
        served.probability == direct.probability and served.error == direct.error
        for served, direct in zip(served_results, reference)
    )

    served_modes = sorted(
        {
            str((result.details.get("serve") or {}).get("fusion"))
            for result in served_results
        }
    )

    served_best = min(served_elapsed)
    cold_best = min(cold_elapsed)
    speedup = cold_best / served_best
    record: dict = {
        "benchmark": "serving_throughput",
        "workload": {
            "n": n,
            "n_queries": n_queries,
            "n_sigmas": n_sigmas,
            "n_samples": n_samples,
            "method": solver_config.method,
            "repeats": repeats,
            "seed": seed,
        },
        "serving": {
            "n_shards": n_shards,
            "max_batch": max_batch,
            "worker_mode": worker_mode,
            "stats": stats.as_dict(),
        },
        "machine": {"python": platform.python_version(), "platform": platform.platform()},
        "paths": {
            "cold_singles": {
                "elapsed": cold_best,
                "queries_per_second": n_queries / cold_best,
            },
            "served": {
                "elapsed": served_best,
                "queries_per_second": n_queries / served_best,
            },
        },
        "speedup": speedup,
        "parity": {"served_bit_identical": bit_identical},
        "fusion": {"served_modes": served_modes},
        "gate": {
            "metric": "end-to-end speedup, served vs cold singles",
            "threshold": SERVING_SPEEDUP_GATE,
            "value": speedup,
            "passed": speedup >= SERVING_SPEEDUP_GATE and bit_identical,
        },
    }

    if json_path is not None:
        json_path = Path(json_path)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
