"""Online-update gate — rank-k up/down-date vs assemble-and-refactorize.

The acceptance gate of the online-updates PR: answering a query against
``Sigma + U U^T`` through :meth:`repro.solver.Model.update` of the warm
parent factor must beat assembling the perturbed covariance and cold-
factorizing it by at least **5x** for every update rank up to 16 at
``n = 2048`` — the regime the streaming excursion-monitor example lives in,
where a sliding window perturbs a few columns of the covariance per step.

Both paths end in the same QMC sweep with the same seed, so the gate also
enforces the *correctness* half of the contract: the updated model's
probability must match the from-scratch factorization to ``1e-9`` relative
tolerance (the factors agree to ~1e-14 elementwise; the estimates differ by
a few ulps at most).  The refactorize path runs first in every repeat so
the update path never benefits from warmer BLAS caches.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import append_record, gate_record, save_table, time_paths
from repro import MVNSolver, SolverConfig
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.utils.reporting import Table

#: acceptance threshold: (assemble + refactorize + query) vs (update + query)
UPDATE_SPEEDUP_GATE = 5.0

#: maximum relative disagreement between the updated-model estimate and the
#: from-scratch estimate (same seed, same sweep — only the factor differs)
UPDATE_MATCH_RTOL = 1e-9

FULL = dict(n=2048, tile_size=256, ranks=(1, 8, 16), n_samples=64, repeats=3)
QUICK = dict(n=144, tile_size=48, ranks=(1, 4), n_samples=64, repeats=1)

#: update-matrix and QMC seed, shared by both paths so the estimates are
#: comparable to ulps
SEED = 7


def run(quick: bool = False) -> dict:
    """Time update+query against refactorize+query per rank; return the record."""
    shape = QUICK if quick else FULL
    n = shape["n"]
    side = int(np.ceil(np.sqrt(n)))
    sigma = build_covariance(ExponentialKernel(1.0, 0.1),
                             Geometry.regular_grid(side, side).locations[:n], nugget=1e-6)
    rng = np.random.default_rng(SEED)
    a = np.full(n, -np.inf)
    b = rng.uniform(0.5, 2.5, n)
    config = SolverConfig(method="dense", n_samples=shape["n_samples"],
                          tile_size=shape["tile_size"])

    scenarios = {}
    with MVNSolver(config) as solver:
        parent = solver.model(sigma)
        parent.probability(a, b, rng=SEED)  # warm the parent factor once

        for rank in shape["ranks"]:
            u = 0.1 * rng.standard_normal((n, rank))

            def refactorize():
                # what a caller without Model.update must do: assemble the
                # perturbed covariance, factorize it cold, run the same sweep
                sigma_child = sigma + u @ u.T
                with MVNSolver(config) as cold:
                    return cold.model(sigma_child).probability(a, b, rng=SEED).probability

            def update():
                return parent.update(u).probability(a, b, rng=SEED).probability

            timings, results = time_paths({"refactorize": refactorize, "update": update},
                                          shape["repeats"])
            p_refactor, p_update = results["refactorize"][-1], results["update"][-1]
            speedup = timings["refactorize"]["min"] / timings["update"]["min"]
            rel_diff = abs(p_refactor - p_update) / max(abs(p_refactor), abs(p_update), 1e-300)
            matched = bool(rel_diff <= UPDATE_MATCH_RTOL)
            scenarios[f"rank_{rank}"] = {
                "rank": rank,
                **timings,
                "speedup": speedup,
                "probability_refactorize": p_refactor,
                "probability_update": p_update,
                "rel_diff": rel_diff,
                "matched": matched,
                "passed": bool(matched and (quick or speedup >= UPDATE_SPEEDUP_GATE)),
            }

    value = min(data["speedup"] for data in scenarios.values())
    return gate_record(
        "online_updates", quick=quick, threshold=UPDATE_SPEEDUP_GATE, value=value,
        passed=all(data["passed"] for data in scenarios.values()),
        detail={
            "metric": "(assemble + refactorize + query) vs (update + query), "
                      "slowest update rank",
            "match_rtol": UPDATE_MATCH_RTOL,
            "workload": dict(shape, seed=SEED),
            "scenarios": scenarios,
        },
    )


def test_online_updates(benchmark):
    """update+query >= 5x refactorize+query for rank <= 16, matching answers."""
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    append_record(record)
    scenarios = record["detail"]["scenarios"]

    table = Table(
        ["rank", "refactorize (s)", "update (s)", "speedup", "rel diff"],
        title=f"rank-k update vs refactorize, n={FULL['n']}, "
              f"N={FULL['n_samples']} (cold refactorize, minima)",
    )
    for data in scenarios.values():
        table.add_row([data["rank"], data["refactorize"]["min"], data["update"]["min"],
                       data["speedup"], data["rel_diff"]])
    save_table(table, "online_updates")
    print()
    print(table.render())

    for name, data in scenarios.items():
        assert data["matched"], (
            f"{name}: updated-model estimate diverged from the from-scratch "
            f"factorization by {data['rel_diff']:.2e} (tolerance: {UPDATE_MATCH_RTOL})"
        )
        assert data["speedup"] >= UPDATE_SPEEDUP_GATE, (
            f"{name}: update+query only {data['speedup']:.2f}x faster than "
            f"refactorize+query (gate: {UPDATE_SPEEDUP_GATE}x)"
        )
    assert record["passed"]
