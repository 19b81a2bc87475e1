"""Query planner gate — ``method="auto"`` vs the best hand-picked method.

The acceptance gate of the declarative-query PR: across a three-scenario
sweep spanning the planner's decision space —

* **small_dense** — a small exponential-kernel field, where dense
  factorization is cheap and compression overhead cannot pay off
  (``auto`` picks dense),
* **banded_tile** — a banded (AR-style) covariance at medium dimension,
  whose off-diagonal tiles compress to rank 1 (``auto`` picks TLR; the two
  methods are within ~5% of each other on a 2-core x86_64 box),
* **lowrank_tlr** — a large smooth (long-range) field, the paper's TLR
  sweet spot (``auto`` picks TLR) —

the planner-chosen method must never cost more than **1.2x** the best
hand-picked method's wall time (cold functional calls, the auto candidate
first in every repeat, minima across repeats), while remaining
**bit-identical** to explicitly requesting the method the planner chose.
The record's ``value`` is the worst scenario's ratio, so lower is better.
The picks above are those of the planner's committed rates (fitted with one
BLAS thread per worker); the quick sizes are single-tile problems, where
both candidates cost the same and ``auto`` picks dense.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import append_record, gate_record, save_table, time_paths
from repro import mvn_probability
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.utils.reporting import Table

#: acceptance threshold: auto wall time vs the best hand-picked method
PLANNER_OVERHEAD_GATE = 1.2

#: the hand-picked candidates auto is judged against (the methods the
#: planner chooses between)
_CANDIDATES = ("dense", "tlr")

#: box-generation and QMC seed, shared per scenario so auto's result can be
#: pinned bit-identical to its chosen method's
SEED = 7


def _spatial_sigma(n: int, range_: float) -> np.ndarray:
    side = int(np.ceil(np.sqrt(n)))
    geom = Geometry.regular_grid(side, side)
    return build_covariance(ExponentialKernel(1.0, range_), geom.locations[:n], nugget=1e-6)


def _banded_sigma(n: int, length: float = 8.0) -> np.ndarray:
    """A 1-D AR-style covariance: exponential decay in index distance (SPD)."""
    idx = np.arange(n, dtype=np.float64)
    sigma = np.exp(-np.abs(idx[:, None] - idx[None, :]) / length)
    np.fill_diagonal(sigma, sigma.diagonal() + 1e-6)
    return sigma


def scenarios(quick: bool) -> dict[str, tuple[np.ndarray, int]]:
    """The scenario suite: name -> ``(sigma, n_samples)``."""
    if quick:
        return {
            "small_dense": (_spatial_sigma(36, 0.1), 64),
            "banded_tile": (_banded_sigma(49), 64),
            "lowrank_tlr": (_spatial_sigma(64, 0.8), 64),
        }
    return {
        "small_dense": (_spatial_sigma(196, 0.1), 1000),
        "banded_tile": (_banded_sigma(784), 2000),
        "lowrank_tlr": (_spatial_sigma(1600, 0.3), 4000),
    }


def run(quick: bool = False) -> dict:
    """Time auto against every hand-picked method per scenario; return the record."""
    repeats = 1 if quick else 3
    records = {}
    for name, (sigma, n_samples) in scenarios(quick).items():
        n = sigma.shape[0]
        a, b = np.full(n, -np.inf), np.random.default_rng(SEED).uniform(0.5, 2.5, n)
        # candidate first: auto eats the cold caches in every repeat; each
        # call is cold (fresh runtime + factorization)
        paths = {
            method: (lambda method=method: mvn_probability(a, b, sigma, method=method,
                                                           n_samples=n_samples, rng=SEED))
            for method in ("auto", *_CANDIDATES)
        }
        timings, results = time_paths(paths, repeats)
        auto = results["auto"][-1]
        chosen = auto.details["plan"]["method"]
        bit_identical = (auto.probability == results[chosen][-1].probability
                         and auto.error == results[chosen][-1].error)
        ratio = timings["auto"]["min"] / min(timings[m]["min"] for m in _CANDIDATES)
        records[name] = {
            "n": n,
            "n_samples": n_samples,
            "chosen_method": chosen,
            "plan_reason": auto.details["plan"]["reason"],
            "elapsed": timings,
            "ratio_vs_best": ratio,
            "bit_identical_to_chosen": bit_identical,
            "passed": bool(bit_identical and (quick or ratio <= PLANNER_OVERHEAD_GATE)),
        }

    return gate_record(
        "planner_auto", quick=quick, threshold=PLANNER_OVERHEAD_GATE,
        value=max(data["ratio_vs_best"] for data in records.values()),
        passed=all(data["passed"] for data in records.values()),
        detail={
            "metric": "auto wall time vs best hand-picked method, worst scenario",
            "workload": {"repeats": repeats, "seed": SEED},
            "scenarios": records,
        },
    )


def test_planner_auto(benchmark):
    """auto <= 1.2x the best hand-picked method, bit-identical to its choice."""
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    append_record(record)
    records = record["detail"]["scenarios"]

    table = Table(
        ["scenario", "n", "N", "chosen", "auto (s)", "dense (s)", "tlr (s)", "ratio vs best"],
        title="method='auto' vs hand-picked methods (cold calls, minima)",
    )
    for name, data in records.items():
        elapsed = data["elapsed"]
        table.add_row([name, data["n"], data["n_samples"], data["chosen_method"],
                       elapsed["auto"]["min"], elapsed["dense"]["min"],
                       elapsed["tlr"]["min"], data["ratio_vs_best"]])
    save_table(table, "planner_auto")
    print()
    print(table.render())

    for name, data in records.items():
        assert data["bit_identical_to_chosen"], (
            f"{name}: auto diverged from explicitly requesting {data['chosen_method']!r}"
        )
        assert data["ratio_vs_best"] <= PLANNER_OVERHEAD_GATE, (
            f"{name}: auto cost {data['ratio_vs_best']:.2f}x the best "
            f"hand-picked method (gate: {PLANNER_OVERHEAD_GATE}x)"
        )
    assert record["passed"]
