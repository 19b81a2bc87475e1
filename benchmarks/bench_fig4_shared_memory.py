"""Figure 4 — time of one MVN integration vs dimension (shared memory).

Measured series on this machine: elapsed time of one PMVN integration for
dense and TLR across dimensions and QMC sample sizes — the paper's Figure 4
with scaled axes.  The modelled series extrapolates to the paper's dimensions
(4,900 ... 78,400) on the four Table-II architectures.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import DIMENSIONS, N_WORKERS, save_table
from repro.core import mvn_probability
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.perf import MACHINES, PMVNCostModel
from repro.runtime import Runtime
from repro.utils.reporting import Table

QMC_SIZES = (100, 1_000, 4_000)
TLR_ACCURACY = 1e-3


def _covariance(n: int) -> np.ndarray:
    side = int(round(np.sqrt(n)))
    geom = Geometry.regular_grid(side, side)
    return build_covariance(ExponentialKernel(1.0, 0.1), geom.locations, nugget=1e-6)


def _elapsed(sigma: np.ndarray, method: str, n_samples: int) -> float:
    n = sigma.shape[0]
    a, b = np.full(n, -np.inf), np.full(n, 0.5)
    tile = max(100, n // 10)
    runtime = Runtime(n_workers=N_WORKERS)
    start = time.perf_counter()
    mvn_probability(
        a, b, sigma, method=method, n_samples=n_samples, tile_size=tile,
        accuracy=TLR_ACCURACY, max_rank=64, runtime=runtime, rng=1,
    )
    return time.perf_counter() - start


@pytest.mark.parametrize("method", ["dense", "tlr"])
def test_fig4_measured_curve(benchmark, method):
    """Measured elapsed-time series over dimension and QMC size."""

    def run_all():
        rows = []
        for n in DIMENSIONS:
            sigma = _covariance(n)
            for n_samples in QMC_SIZES:
                rows.append((sigma.shape[0], n_samples, _elapsed(sigma, method, n_samples)))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        ["dimension", "QMC sample size", "elapsed (s)"],
        title=f"Figure 4 (measured, scaled) — {method}, {N_WORKERS} workers",
    )
    for row in rows:
        table.add_row(list(row))
    save_table(table, f"fig4_measured_{method}")
    print()
    print(table.render())

    # elapsed time must grow with the dimension for every sample size
    for n_samples in QMC_SIZES:
        series = [t for (n, s, t) in rows if s == n_samples]
        assert series[-1] > series[0]


def test_fig4_modelled_paper_scale(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        ["system", "dimension", "QMC", "dense (s)", "TLR (s)"],
        title="Figure 4 (modelled at the paper's scale)",
    )
    for key, spec in MACHINES.items():
        if key == "shaheen-xc40-node":
            continue
        model = PMVNCostModel(spec)
        for n in (4_900, 19_600, 44_100, 78_400):
            for n_samples in (100, 1_000, 10_000):
                dense = model.total_time(n, n_samples, "dense", tile_size=500, mean_rank=10)
                tlr = model.total_time(n, n_samples, "tlr", tile_size=500, mean_rank=10)
                table.add_row([spec.name, n, n_samples, dense, tlr])
                assert tlr < dense
    save_table(table, "fig4_modelled")
    print()
    print(table.render())
