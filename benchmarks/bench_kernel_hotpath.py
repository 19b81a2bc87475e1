"""QMC kernel hot path — fused numpy backend vs the pre-PR reference kernel.

The acceptance gate of the allocation-free kernel PR: on a dense ``n=1024``
one-sided sweep (the CDF-style query shape every excursion / confidence
region workload issues), the fused numpy backend must spend **>= 1.5x less
time in the kernel phase** than the verbatim pre-optimization row loop,
while remaining **bit-identical** — the fusion only removes dead work
(allocations, exactly-zero/one CDF evaluations, no-op arithmetic), it never
reorders an operation that reaches an output.

Every available kernel backend sweeps the *same* factor and QMC stream.  The
gate compares the **kernel phase** (summed ``qmc_kernel_tile`` time, via the
per-phase clock the sweep always carries in ``MVNResult.details``): the GEMM
propagation and QMC generation are shared costs, so folding them in would
let BLAS noise mask a kernel regression.  The reference backend sweeps last
in every repeat, through the identical task graph.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import append_record, gate_record, min_spread, save_table, time_paths
from repro.core.factor import factorize
from repro.core.kernel_backend import available_backends
from repro.core.pmvn import PMVNOptions, SweepWorkspace, pmvn_integrate
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.utils.reporting import Table

#: acceptance threshold of the hot-path PR: fused numpy kernel vs reference
KERNEL_SPEEDUP_GATE = 1.5

# narrower chain blocks weight the per-row overhead the fusion removes more
# heavily (and match the single-box sweep's square-tile default)
FULL = dict(n=1024, tile_size=128, chain_block=128, n_samples=512, repeats=5, one_sided=True)
QUICK = dict(n=36, tile_size=6, chain_block=32, n_samples=64, repeats=1, one_sided=True)


def workload(n: int, one_sided: bool, seed: int = 7):
    """Covariance and limits of the benchmark problem.

    A unit-variance exponential-kernel field on a regular grid (the closest
    square grid with at least ``n`` points, truncated to ``n``) and a random
    upper limit per dimension; the lower limit is ``-inf`` for the one-sided
    (CDF-style) workload or a finite two-sided band otherwise.  The limits
    sit high enough that the ``n``-fold product of interval probabilities
    stays representable — a degenerate 0.0 estimate would make the
    bit-parity verdict vacuous.
    """
    side = int(np.ceil(np.sqrt(n)))
    geom = Geometry.regular_grid(side, side)
    sigma = build_covariance(ExponentialKernel(1.0, 0.3), geom.locations[:n], nugget=1e-6)
    rng = np.random.default_rng(seed)
    b = rng.uniform(1.5, 3.0, n)
    a = np.full(n, -np.inf) if one_sided else -rng.uniform(1.5, 3.0, n)
    return sigma, a, b


def run(quick: bool = False) -> dict:
    """Sweep every available backend and return the gate record."""
    shape = QUICK if quick else FULL
    sigma, a, b = workload(shape["n"], shape["one_sided"])
    factor = factorize(sigma, method="dense", tile_size=shape["tile_size"])
    # candidate first, reference last: the optimized path absorbs the cold
    # caches and the baseline gets the warmest possible machine
    names = sorted(available_backends(), key=lambda name: (name == "reference", name))
    paths = {}
    for name in names:
        options = PMVNOptions(n_samples=shape["n_samples"], chain_block=shape["chain_block"],
                              rng=0, backend=name, workspace=SweepWorkspace())
        paths[name] = lambda options=options: pmvn_integrate(a, b, factor, options)
    # one untimed warm-up sweep per backend (first-touch of the pooled
    # buffers, ufunc setup, BLAS thread spin-up)
    for path in paths.values():
        path()
    timings, results = time_paths(paths, shape["repeats"])

    backends = {
        name: {
            "kernel_seconds": min_spread([r.details["kernel_seconds"] for r in results[name]]),
            "gemm_seconds": min(r.details["gemm_seconds"] for r in results[name]),
            "elapsed": timings[name],
            "probability": results[name][-1].probability,
            "error": results[name][-1].error,
        }
        for name in names
    }
    ref = backends["reference"]
    speedup = {
        name: {
            "kernel": ref["kernel_seconds"]["min"] / data["kernel_seconds"]["min"],
            "sweep": ref["elapsed"]["min"] / data["elapsed"]["min"],
        }
        for name, data in backends.items()
        if name != "reference"
    }
    parity = {
        "numpy_bit_identical": (
            backends["numpy"]["probability"] == ref["probability"]
            and backends["numpy"]["error"] == ref["error"]
        )
    }
    value = speedup["numpy"]["kernel"]
    return gate_record(
        "kernel_hotpath", quick=quick, threshold=KERNEL_SPEEDUP_GATE, value=value,
        passed=parity["numpy_bit_identical"] and (quick or value >= KERNEL_SPEEDUP_GATE),
        detail={
            "metric": "kernel speedup, numpy vs reference",
            "workload": shape,
            "backends": backends,
            "speedup": speedup,
            "parity": parity,
        },
    )


def test_kernel_hotpath(benchmark):
    """Fused numpy kernel >= 1.5x over the reference kernel, bit-identical."""
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    append_record(record)
    detail = record["detail"]

    table = Table(
        ["backend", "kernel (s)", "gemm (s)", "sweep (s)", "kernel speedup"],
        title=f"QMC kernel hot path — n={FULL['n']}, tile={FULL['tile_size']}, "
              f"chains/block={FULL['chain_block']}, N={FULL['n_samples']}, one-sided",
    )
    for name, data in detail["backends"].items():
        table.add_row([name, data["kernel_seconds"]["min"], data["gemm_seconds"],
                       data["elapsed"]["min"], detail["speedup"].get(name, {}).get("kernel", 1.0)])
    save_table(table, "kernel_hotpath")
    print()
    print(table.render())

    assert detail["parity"]["numpy_bit_identical"], (
        "fused numpy kernel diverged from the reference recursion: "
        f"{detail['backends']['numpy']['probability']} vs "
        f"{detail['backends']['reference']['probability']}"
    )
    assert record["value"] >= KERNEL_SPEEDUP_GATE, (
        f"fused kernel speedup only {record['value']:.2f}x (gate: {KERNEL_SPEEDUP_GATE}x)"
    )
