"""Pipeline gate — threshold-sweep excursion pipeline vs loop-of-queries.

The acceptance gate of the QueryPipeline PR: running ``T`` thresholds of
the joint positive/negative excursion analysis through **one**
:func:`repro.excursion.excursion_threshold_sweep` pipeline (one solver
session, one factor cache, covariance validation and structure probing
hoisted to the graph level) must beat the equivalent loop of transient
:func:`repro.excursion.excursion_analysis` calls by at least **2x** at
``n = 2000``, ``T = 8``, with bit-identical per-threshold confidence
functions.

The workload is a 1-D exponential-kernel field with constant variance and a
strictly monotone (tie-free) mean, so the detection ordering is
threshold-invariant: every positive leg of the sweep shares one cached
factorization and every negative leg one more.  The pipeline therefore pays
**2** factorizations where the loop pays ``2 T``, and the record keeps both
counts as evidence, not just the wall clock.  The loop runs first in every
repeat so the pipeline never benefits from warmer BLAS caches.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import append_record, gate_record, save_table, time_paths
from repro.batch import FactorCache
from repro.excursion import excursion_analysis, excursion_threshold_sweep
from repro.utils.reporting import Table

#: acceptance threshold: loop of transient excursion analyses vs one pipeline
PIPELINE_SPEEDUP_GATE = 2.0

FULL = dict(n=2000, n_thresholds=8, n_samples=32, repeats=3)
QUICK = dict(n=48, n_thresholds=2, n_samples=64, repeats=1)

#: QMC seed, shared by every detection of both paths so the per-threshold
#: results are comparable bit for bit
SEED = 0


def _field(n: int) -> tuple[np.ndarray, np.ndarray]:
    # monotone mean: ties in the marginal exceedance probabilities would
    # break the threshold-invariance of the detection ordering and with it
    # the factor sharing the gate measures
    pts = np.linspace(0.0, 1.0, n)
    sigma = np.exp(-np.abs(pts[:, None] - pts[None, :]) / 0.25) + 1e-6 * np.eye(n)
    mean = np.linspace(-1.0, 1.5, n)
    return sigma, mean


def run(quick: bool = False) -> dict:
    """Time the loop against the pipeline and return the gate record."""
    shape = QUICK if quick else FULL
    n_samples = shape["n_samples"]
    sigma, mean = _field(shape["n"])
    thresholds = np.linspace(0.0, 1.0, shape["n_thresholds"])

    def loop():
        # what a caller without QueryPipeline must do: one transient
        # excursion_analysis per threshold, each paying its own
        # factorizations (counted through per-call caches)
        caches = [FactorCache(max_entries=4) for _ in thresholds]
        results = [
            excursion_analysis(sigma, mean, float(u), n_samples=n_samples, rng=SEED, cache=cache)
            for u, cache in zip(thresholds, caches)
        ]
        return results, sum(cache.factorize_count for cache in caches)

    def pipeline():
        cache = FactorCache(max_entries=2 * len(thresholds) + 2)
        results = excursion_threshold_sweep(sigma, mean, thresholds, n_samples=n_samples,
                                            rng=SEED, cache=cache)
        return results, cache.factorize_count

    # warm the BLAS/kernel paths once before any timed repetition
    excursion_analysis(sigma, mean, float(thresholds[0]), n_samples=n_samples, rng=SEED)
    timings, results = time_paths({"loop": loop, "pipeline": pipeline}, shape["repeats"])
    loop_results, loop_factorizations = results["loop"][-1]
    pipe_results, pipe_factorizations = results["pipeline"][-1]

    identical = bool(all(
        np.array_equal(piped.positive.confidence_function, looped.positive.confidence_function)
        and np.array_equal(piped.negative.confidence_function, looped.negative.confidence_function)
        for piped, looped in zip(pipe_results, loop_results)
    ))
    shared = bool(pipe_factorizations < loop_factorizations)
    speedup = timings["loop"]["min"] / timings["pipeline"]["min"]
    return gate_record(
        "pipeline", quick=quick, threshold=PIPELINE_SPEEDUP_GATE, value=speedup,
        passed=bool(identical and shared and (quick or speedup >= PIPELINE_SPEEDUP_GATE)),
        detail={
            "metric": "loop of transient excursion_analysis calls vs one "
                      "excursion_threshold_sweep pipeline, bit-identical "
                      "per-threshold results",
            "workload": dict(shape, seed=SEED, thresholds=thresholds.tolist()),
            "loop": dict(timings["loop"], factorizations=loop_factorizations),
            "pipeline": dict(timings["pipeline"], factorizations=pipe_factorizations),
            "speedup": speedup,
            "identical": identical,
            "factor_sharing": {"pipeline": pipe_factorizations, "loop": loop_factorizations,
                               "shared": shared},
        },
    )


def test_pipeline(benchmark):
    """One pipeline >= 2x a loop of transient analyses, identical results."""
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    append_record(record)
    detail = record["detail"]

    table = Table(
        ["path", "seconds", "factorizations"],
        title=f"excursion threshold sweep, n={FULL['n']}, T={FULL['n_thresholds']}, "
              f"N={FULL['n_samples']} (loop first, minima; speedup {record['value']:.2f}x)",
    )
    for name in ("loop", "pipeline"):
        table.add_row([name, detail[name]["min"], detail[name]["factorizations"]])
    save_table(table, "pipeline")
    print()
    print(table.render())

    assert detail["identical"], (
        "pipeline per-threshold results diverged from the loop of "
        "transient excursion analyses"
    )
    assert detail["factor_sharing"]["shared"], (
        f"pipeline paid {detail['pipeline']['factorizations']} "
        f"factorizations, loop {detail['loop']['factorizations']} — "
        "no sharing happened"
    )
    assert record["value"] >= PIPELINE_SPEEDUP_GATE, (
        f"pipeline only {record['value']:.2f}x faster than the loop "
        f"(gate: {PIPELINE_SPEEDUP_GATE}x)"
    )
    assert record["passed"]
