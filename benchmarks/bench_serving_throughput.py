"""Serving throughput — micro-batched sharded serving vs cold single queries.

The acceptance gate of the serving PR: on a mixed workload (two distinct
covariances, 64 one-sided TLR queries), submitting everything concurrently
to a :class:`repro.serve.QueryBroker` — which routes each Sigma to a warm
shard and micro-batches same-Sigma requests into ``probability_batch``
sweeps — must be **>= 3x** faster end-to-end than answering the queries
with one cold :func:`repro.mvn_probability` call each, while every served
probability stays **bit-identical** to a direct warm
:meth:`repro.solver.Model.probability` call with the same seed.

Measurement protocol (see :mod:`repro.perf.serving`): the served path runs
first in every repeat, minima across repeats, and every repeat rebuilds and
drains a fresh broker so shard start-up and the per-shard factorizations
are inside the measured window.

Emits ``BENCH_serving_throughput.json`` at the repository root (the serving
row of the machine-readable perf trajectory started by
``BENCH_kernel_hotpath.json``) and a human-readable table under
``benchmarks/results/``.

The default workload (``n_samples=200``, micro-batches of up to 16) is
lane-aligned, so served micro-batches sweep in cross-box tiles while each
direct reference call sweeps one box in per-box tiles: the bit-parity gate
therefore also pins the two sweep layouts to each other.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import save_table
from repro.perf.serving import SERVING_SPEEDUP_GATE, run_serving_benchmark
from repro.utils.reporting import Table

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving_throughput.json"

N = 400
N_QUERIES = 64
N_SIGMAS = 2
N_SAMPLES = 200
METHOD = "tlr"
N_SHARDS = 2
MAX_BATCH = 16
REPEATS = 2


def test_serving_throughput(benchmark):
    """Micro-batched serving >= 3x over cold singles, bit-identical results."""
    record = benchmark.pedantic(
        lambda: run_serving_benchmark(
            n=N, n_queries=N_QUERIES, n_sigmas=N_SIGMAS, n_samples=N_SAMPLES,
            method=METHOD, n_shards=N_SHARDS, max_batch=MAX_BATCH,
            repeats=REPEATS, json_path=JSON_PATH,
        ),
        rounds=1, iterations=1,
    )

    table = Table(
        ["path", "elapsed (s)", "queries/s"],
        title=f"serving vs cold singles — {N_QUERIES} queries, {N_SIGMAS} Sigmas, "
              f"n={N}, N={N_SAMPLES}, {METHOD}, {N_SHARDS} shards",
    )
    for name, data in record["paths"].items():
        table.add_row([name, data["elapsed"], data["queries_per_second"]])
    table.add_row(["speedup", record["speedup"], ""])
    save_table(table, "serving_throughput")
    print()
    print(table.render())
    stats = record["serving"]["stats"]
    print(f"batches={stats['batches']} mean_batch_size={stats['mean_batch_size']:.1f} "
          f"batch_fill_ratio={stats['batch_fill_ratio']:.2f}")
    print(f"wrote {JSON_PATH}")

    assert record["parity"]["served_bit_identical"], (
        "served results diverged from direct Model.probability calls"
    )
    # the default workload is lane-aligned, so auto-fusion must have engaged
    # (a straggler micro-batch of one box legitimately stays interleaved)
    assert "fused" in record["fusion"]["served_modes"], record["fusion"]
    # every distinct Sigma must have been factorized exactly once, on the
    # shard the fingerprint routing assigned it to
    total_factorizations = sum(s["factorize_count"] for s in stats["shards"])
    assert total_factorizations == N_SIGMAS, stats["shards"]
    value = record["speedup"]
    assert value >= SERVING_SPEEDUP_GATE, (
        f"serving speedup only {value:.2f}x (gate: {SERVING_SPEEDUP_GATE}x)"
    )
    assert JSON_PATH.exists()
