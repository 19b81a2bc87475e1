"""Table II — TLR vs dense speedup on shared-memory systems.

Two complementary reproductions:

* **Measured** — wall-clock time of one PMVN integration (covariance build +
  Cholesky + sweep) in dense and TLR mode on this machine, for the scaled
  QMC sample sizes; the speedup must grow with the sample size, as in the
  paper's Table II.
* **Modelled** — the calibrated shared-memory cost model evaluated at the
  paper's problem size (40,000 locations) and sample sizes (100 / 1,000 /
  10,000) for the four architectures of Table II.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import N_WORKERS, QMC_SIZES, save_table
from repro.core import mvn_probability
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.perf import MACHINES, PMVNCostModel
from repro.runtime import Runtime
from repro.utils.reporting import Table

DIMENSION = 4_900          # paper: 40,000+
TILE_SIZE = 350
TLR_ACCURACY = 1e-3
MAX_RANK = 64


@pytest.fixture(scope="module")
def covariance():
    geom = Geometry.regular_grid(70, 70)
    return build_covariance(ExponentialKernel(1.0, 0.1), geom.locations, nugget=1e-6)


def _run(sigma, method: str, n_samples: int) -> float:
    a = np.full(sigma.shape[0], -np.inf)
    b = np.full(sigma.shape[0], 0.5)
    runtime = Runtime(n_workers=N_WORKERS)
    start = time.perf_counter()
    mvn_probability(
        a, b, sigma, method=method, n_samples=n_samples, tile_size=TILE_SIZE,
        accuracy=TLR_ACCURACY, max_rank=MAX_RANK, runtime=runtime, rng=0,
    )
    return time.perf_counter() - start


@pytest.mark.parametrize("method", ["dense", "tlr"])
@pytest.mark.parametrize("n_samples", list(QMC_SIZES))
def test_table2_measured_single_configuration(benchmark, covariance, method, n_samples):
    """Per-configuration timing sample (the speedup table is assembled below)."""
    benchmark.pedantic(lambda: _run(covariance, method, n_samples), rounds=1, iterations=1)


def test_table2_measured_speedups(benchmark, covariance):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        ["QMC sample size", "dense time (s)", "TLR time (s)", "speedup"],
        title=f"Table II (measured, scaled) — n={DIMENSION}, tile={TILE_SIZE}, "
        f"eps={TLR_ACCURACY:g}, {N_WORKERS} workers",
    )
    speedups = []
    for n_samples in QMC_SIZES:
        dense_t = _run(covariance, "dense", n_samples)
        tlr_t = _run(covariance, "tlr", n_samples)
        speedup = dense_t / tlr_t
        speedups.append(speedup)
        table.add_row([n_samples, dense_t, tlr_t, speedup])
    save_table(table, "table2_measured")
    print()
    print(table.render())

    # Table II shape: the TLR advantage does not shrink as the sample size grows
    assert speedups[-1] >= speedups[0] * 0.8


def test_table2_modelled_architectures(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        ["system", "QMC=100", "QMC=1000", "QMC=10000"],
        title="Table II (modelled at the paper's scale, n=40,000)",
    )
    paper = {
        "intel-icelake-56": (3, 3, 14),
        "intel-cascadelake-40": (3, 3, 19),
        "amd-milan-64": (5, 5, 20),
        "amd-naples-128": (2, 2, 9),
    }
    for key, spec in MACHINES.items():
        if key == "shaheen-xc40-node":
            continue
        model = PMVNCostModel(spec)
        row = [
            round(model.speedup_tlr_over_dense(40_000, n_samples, tile_size=500, mean_rank=10), 1)
            for n_samples in (100, 1_000, 10_000)
        ]
        table.add_row([spec.name, *row])
        # shape check: speedup grows with the QMC sample size, as in the paper
        assert row[2] >= row[0]
        assert row[2] > 2.0
    table.add_row(["(paper values)", str([v[0] for v in paper.values()]),
                   str([v[1] for v in paper.values()]), str([v[2] for v in paper.values()])])
    save_table(table, "table2_modelled")
    print()
    print(table.render())
