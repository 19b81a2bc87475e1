"""Allocation guard: a warm detection allocates only what its ordering needs.

Algorithm 1 reorders the field, factors the reordered correlation matrix
and sweeps it once, so a detection against a new mean needs three large
arrays: the QMC draw (``n x N``), the reordered matrix (``n x n``) and the
factor.  This guard runs warm n = 256 detections the way the ``crd_tlr``
benchmark workload does (a new :class:`repro.solver.Model` per detection,
one solver) and bounds their ``tracemalloc`` peak above steady state by

    QMC draw + reordered matrix + factor + slack,

with the slack stated below.  ``tracemalloc`` counts allocations, not time,
so the guard is deterministic on every machine.  A sweep pool per model
(four fresh ``n x N`` work matrices), an ``n x n`` copy in the covariance
checks or the fingerprint, a second variates matrix in the sweep, or a
whole-array floor in the QMC lattice each push a detection past the
budget of about 4.6 ``n^2`` doubles: the pre-pool code measured 12.3-12.7
here, and the whole-array floor 5.7.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import MVNSolver, SolverConfig
from repro.kernels import ExponentialKernel, Geometry, build_covariance

GRID = 16
N_DIM = GRID * GRID
N_SAMPLES = 2 * N_DIM
DOUBLE = 8
#: slack, in ``n^2`` doubles, for the small scratch (128 x 128 blocks, the
#: lattice's blocked-floor rows, row vectors, task objects); a transient
#: ``n x N`` array alone (``N = 2n``) would take two
SLACK_N2 = 1.0


def _mean(locations: np.ndarray, op: int) -> np.ndarray:
    rng = np.random.default_rng(op)
    return np.sin(rng.uniform(2.0, 6.0) * locations[:, 0]) + rng.uniform(-1.0, 1.0) * locations[:, 1]


@pytest.mark.parametrize("method", ["dense", "tlr"])
def test_warm_detection_peak_within_budget(method):
    locations = Geometry.regular_grid(GRID, GRID).locations
    sigma = build_covariance(ExponentialKernel(1.0, 0.2), locations, nugget=1e-6)
    config = SolverConfig(method=method, n_samples=N_SAMPLES, tile_size=64, accuracy=1e-4)
    with MVNSolver(config) as solver:
        for op in range(2):  # warm-up: pools, caches and lazy imports
            solver.model(sigma, mean=_mean(locations, op)).confidence_region(0.2, rng=op)
        tracemalloc.start()
        try:
            steady = tracemalloc.get_traced_memory()[0]
            model = solver.model(sigma, mean=_mean(locations, 2))
            result = model.confidence_region(0.2, rng=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = solver.cache._entries
        factor = entries[next(reversed(entries))]
    factor_bytes = factor.tiles.memory_bytes() if method == "dense" else factor.tlr.memory_bytes()
    draw = N_DIM * N_SAMPLES * DOUBLE
    reordered = N_DIM * N_DIM * DOUBLE
    budget = draw + reordered + factor_bytes + SLACK_N2 * N_DIM * N_DIM * DOUBLE
    assert result.confidence_function.shape == (N_DIM,)
    assert peak - steady <= budget, (
        f"warm {method} detection peaked {(peak - steady) / reordered:.2f} n^2 doubles above "
        f"steady state; budget {budget / reordered:.2f}"
    )
