"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not part of the paper's tables/figures, but quantifies the knobs the paper's
system exposes:

* scheduler policy of the task runtime (eager FIFO vs priority vs locality),
* tile size of the tiled Cholesky,
* QMC sequence used to fill the ``R`` matrix (random vs Richtmyer vs Halton
  vs Sobol) — convergence of the MVN estimate,
* mixed-precision factorization (the paper's future-work direction) —
  accuracy cost of single/half precision storage.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from benchmarks.conftest import N_WORKERS, save_table
from repro.core import factorize, pmvn_integrate, PMVNOptions
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.mvn import mvn_sov_vectorized
from repro.runtime import Runtime
from repro.tile import TileMatrix, tiled_cholesky
from repro.utils.reporting import Table


@pytest.fixture(scope="module")
def covariance():
    geom = Geometry.regular_grid(40, 40)
    return build_covariance(ExponentialKernel(1.0, 0.1), geom.locations, nugget=1e-6)


def test_ablation_scheduler_policy(benchmark, covariance):
    """Makespan of the tiled Cholesky under the three scheduling policies."""

    def run():
        rows = []
        for policy in ("fifo", "prio", "locality"):
            runtime = Runtime(n_workers=N_WORKERS, policy=policy, trace=True)
            tiles = TileMatrix.from_dense(covariance, 100, lower_only=True)
            start = time.perf_counter()
            tiled_cholesky(tiles, runtime=runtime, overwrite=True)
            elapsed = time.perf_counter() - start
            rows.append((policy, elapsed, runtime.trace.parallel_efficiency(N_WORKERS)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        ["policy", "elapsed (s)", "parallel efficiency"],
        title=f"Ablation — scheduler policy (tiled Cholesky, n={covariance.shape[0]}, {N_WORKERS} workers)",
    )
    for row in rows:
        table.add_row(list(row))
    save_table(table, "ablation_scheduler")
    print()
    print(table.render())
    assert all(r[1] > 0 for r in rows)


def test_ablation_tile_size(benchmark, covariance):
    """Tile-size sweep: too small = task overhead, too large = no parallelism."""

    def run():
        rows = []
        n = covariance.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.5)
        for tile in (50, 100, 200, 400, 800):
            runtime = Runtime(n_workers=N_WORKERS)
            start = time.perf_counter()
            factor = factorize(covariance, method="dense", tile_size=tile, runtime=runtime)
            pmvn_integrate(a, b, factor, PMVNOptions(n_samples=1000, rng=0), runtime=runtime)
            rows.append((tile, time.perf_counter() - start))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        ["tile size", "elapsed (s)"],
        title=f"Ablation — tile size (dense PMVN, n={covariance.shape[0]}, N=1000)",
    )
    for row in rows:
        table.add_row(list(row))
    save_table(table, "ablation_tile_size")
    print()
    print(table.render())
    assert all(r[1] > 0 for r in rows)


def test_ablation_qmc_sequence(benchmark):
    """Convergence of the MVN estimate per QMC sequence (error vs plain MC)."""
    rng = np.random.default_rng(5)
    a_mat = rng.standard_normal((12, 12))
    sigma = a_mat @ a_mat.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    reference = multivariate_normal(cov=sigma).cdf(b)

    def run():
        rows = []
        for sequence in ("random", "richtmyer", "halton", "sobol"):
            errors = []
            for seed in range(8):
                res = mvn_sov_vectorized(
                    np.full(12, -np.inf), b, sigma, n_samples=2000, qmc=sequence, rng=seed
                )
                errors.append(abs(res.probability - reference))
            rows.append((sequence, float(np.median(errors)), float(np.max(errors))))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        ["sequence", "median |error|", "max |error|"],
        title="Ablation — QMC sequence (n=12, N=2000, 8 random shifts, scipy reference)",
    )
    for row in rows:
        table.add_row(list(row))
    save_table(table, "ablation_qmc_sequence")
    print()
    print(table.render())
    random_err = next(r[1] for r in rows if r[0] == "random")
    richtmyer_err = next(r[1] for r in rows if r[0] == "richtmyer")
    assert richtmyer_err <= random_err * 1.5


def test_ablation_precision(benchmark, covariance):
    """Mixed-precision factorization (paper future work): accuracy cost."""
    n = covariance.shape[0]
    # an upper limit high enough that the joint probability is moderate, so
    # relative accuracy of the estimate is meaningful
    a, b = np.full(n, -np.inf), np.full(n, 3.5)

    def run():
        rows = []
        baseline = None
        for precision in ("double", "single", "half"):
            factor = factorize(covariance, method="tlr", tile_size=200, accuracy=1e-4,
                               precision=precision, max_rank=64)
            prob = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=1500, rng=2)).probability
            baseline = baseline if baseline is not None else prob
            rows.append((precision, prob, abs(prob - baseline)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        ["precision", "probability", "|difference from double|"],
        title=f"Ablation — factorization precision (TLR PMVN, n={n}, N=1500)",
    )
    for row in rows:
        table.add_row(list(row))
    save_table(table, "ablation_precision")
    print()
    print(table.render())
    single_diff = next(r[2] for r in rows if r[0] == "single")
    assert single_diff < 1e-3   # the paper's expectation: low precision preserves accuracy
