"""Quick-mode smoke tests of the measured performance benchmarks.

Runs the same harnesses as ``benchmarks/bench_kernel_hotpath.py`` and
``benchmarks/bench_serving_throughput.py`` at tiny sizes: no timing gates
(timings at this scale are noise), but the plumbing — backend sweep, phase
attribution, broker statistics, parity verdicts, JSON emission — must work,
so regressions in the benchmark wiring fail fast in tier-1.

Select just these with ``pytest -m perf_smoke``.
"""

from __future__ import annotations

import json

import pytest

from repro.perf.distributed_serving import run_distributed_serving_benchmark
from repro.perf.hotpath import run_hotpath_benchmark
from repro.perf.online_updates import run_online_update_benchmark
from repro.perf.pipeline import run_pipeline_benchmark
from repro.perf.planner import run_planner_benchmark
from repro.perf.scheduler import run_scheduler_benchmark
from repro.perf.serving import run_serving_benchmark

pytestmark = pytest.mark.perf_smoke


def test_hotpath_benchmark_smoke(tmp_path):
    json_path = tmp_path / "BENCH_kernel_hotpath.json"
    record = run_hotpath_benchmark(
        n=36, tile_size=6, chain_block=32, n_samples=64, repeats=1,
        json_path=json_path,
    )

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "kernel_hotpath"
    assert on_disk["workload"]["n"] == 36

    for name in ("numpy", "reference"):
        backend = record["backends"][name]
        assert backend["kernel_seconds"] > 0.0
        assert backend["elapsed"] > 0.0
    # the estimator itself must agree bit for bit even in quick mode — only
    # the *speed* gate needs the full-size run
    assert record["parity"]["numpy_bit_identical"]
    assert record["backends"]["numpy"]["probability"] > 0.0
    assert record["speedup"]["numpy"]["kernel"] > 0.0
    assert record["gate"]["threshold"] == 1.5

    # the multi-core section is always present; it either gated or says why
    # it could not (never a fabricated verdict)
    multicore = record["multicore"]
    assert multicore["threshold"] == 3.0
    assert multicore["cores"] >= 1
    if multicore["applies"]:
        assert isinstance(multicore["passed"], bool)
        assert multicore["value"] > 0.0
    else:
        assert multicore["passed"] is None
        assert multicore["skipped_reason"]


def test_unavailable_backend_not_faked(tmp_path):
    """A requested backend that falls back must not appear as its own row."""
    from repro.core.kernel_backend import available_backends

    if "numba" in available_backends():
        pytest.skip("numba installed: the fallback path cannot be exercised")
    record = run_hotpath_benchmark(
        n=25, tile_size=5, chain_block=16, n_samples=32, repeats=1,
        backends=("numpy", "reference", "numba"),
        json_path=tmp_path / "bench.json",
    )
    assert "numba" not in record["backends"]
    assert set(record["backends"]) == {"numpy", "reference"}


def test_hotpath_two_sided_smoke(tmp_path):
    record = run_hotpath_benchmark(
        n=25, tile_size=5, chain_block=16, n_samples=32, repeats=1,
        one_sided=False, json_path=tmp_path / "bench.json",
    )
    assert record["workload"]["one_sided"] is False
    assert record["parity"]["numpy_bit_identical"]


def test_serving_benchmark_smoke(tmp_path):
    """Tiny serving run: plumbing, stats and parity — no speed gate."""
    json_path = tmp_path / "BENCH_serving_throughput.json"
    record = run_serving_benchmark(
        n=25, n_queries=8, n_sigmas=2, n_samples=60, method="dense",
        n_shards=2, max_batch=4, repeats=1, json_path=json_path,
    )

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "serving_throughput"
    assert on_disk["workload"]["n_queries"] == 8

    # the estimator must agree bit for bit even in quick mode — only the
    # *speed* gate needs the full-size run
    assert record["parity"]["served_bit_identical"]
    stats = record["serving"]["stats"]
    assert stats["completed"] == 8
    assert stats["failed"] == 0
    # one factorization per distinct covariance, on its owning shard
    assert sum(s["factorize_count"] for s in stats["shards"]) == 2
    assert record["paths"]["served"]["elapsed"] > 0.0
    assert record["gate"]["threshold"] == 3.0
    # n_samples=60 is deliberately lane-misaligned: every batch stays per-box
    assert record["fusion"]["served_modes"] == ["interleaved"]


def test_serving_benchmark_smoke_fused(tmp_path):
    """A lane-aligned smoke run fuses, and its served answers stay
    bit-identical to direct single-box calls in per-box tiles."""
    record = run_serving_benchmark(
        n=25, n_queries=8, n_sigmas=2, n_samples=64, method="dense",
        n_shards=1, max_batch=4, repeats=1,
        json_path=tmp_path / "bench.json",
    )
    assert record["parity"]["served_bit_identical"]
    assert "fused" in record["fusion"]["served_modes"]


def test_distributed_serving_benchmark_smoke(tmp_path):
    """Tiny multi-node run: placement, simulation, parity, JSON — no gate.

    Timing-derived figures at this scale are noise, so the simulated
    *scaling* value is not asserted — only that the plumbing produces it,
    that every covariance got a placement decision, and that the real
    multi-shard broker answered bit-identically to the single-shard one.
    """
    json_path = tmp_path / "BENCH_distributed_serving.json"
    record = run_distributed_serving_benchmark(
        n_small=25, n_large=64, n_queries=32, n_samples=60,
        parity_queries=16, json_path=json_path,
    )

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "distributed_serving"
    assert on_disk["workload"]["n_queries"] == 32

    assert record["parity"]["bit_identical"]
    assert record["gate"]["threshold"] == 3.0
    assert [sim["n_nodes"] for sim in record["simulation"]] == [1, 2, 4]
    for sim in record["simulation"]:
        assert sim["queries_per_second"] > 0.0
        assert 0.0 < sim["parallel_efficiency"] <= 1.0
        assert len(sim["placements"]) == record["workload"]["n_sigmas"]
        assert sim["replicated_factors"] + sim["routed_factors"] == \
            record["workload"]["n_sigmas"]
    # every Sigma's simulated costs are real measurements on this machine
    for profile in record["calibration"]:
        assert profile["factorize_seconds"] >= 0.0
        assert profile["sweep_seconds_per_query"] > 0.0
        assert profile["method"] in ("dense", "tlr")


def test_planner_benchmark_smoke(tmp_path):
    """Tiny planner run: plumbing, parity verdicts, JSON — no speed gate."""
    json_path = tmp_path / "BENCH_planner.json"
    record = run_planner_benchmark(repeats=1, quick=True, json_path=json_path)

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "planner_auto"
    assert on_disk["gate"]["threshold"] == 1.2
    assert set(record["scenarios"]) == {"small_dense", "banded_tile", "lowrank_tlr"}
    for data in record["scenarios"].values():
        # the planner's choice must execute bit-identically to requesting it
        # explicitly even in quick mode — only the *speed* gate needs size
        assert data["bit_identical_to_chosen"]
        assert data["chosen_method"] in ("dense", "tlr")
        assert data["elapsed"]["auto"] > 0.0
        assert data["passed"]
    assert record["gate"]["passed"]


def test_online_update_benchmark_smoke(tmp_path):
    """Tiny update run: plumbing, correctness tolerance, JSON — no speed gate."""
    json_path = tmp_path / "BENCH_online_updates.json"
    record = run_online_update_benchmark(repeats=1, quick=True, json_path=json_path)

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "online_updates"
    assert on_disk["gate"]["threshold"] == 5.0
    assert set(record["scenarios"]) == {"rank_1", "rank_4"}
    for data in record["scenarios"].values():
        # the updated factor must match the from-scratch factorization even
        # in quick mode — only the *speed* gate needs the full-size run
        assert data["matched"]
        assert data["rel_diff"] <= 1e-9
        assert data["update_seconds"] > 0.0
        assert data["passed"]
    assert record["gate"]["passed"]


def test_pipeline_benchmark_smoke(tmp_path):
    """Tiny sweep run: plumbing, factor sharing, bit-identity — no speed gate."""
    json_path = tmp_path / "BENCH_pipeline.json"
    record = run_pipeline_benchmark(repeats=1, quick=True, json_path=json_path)

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "pipeline"
    assert on_disk["gate"]["threshold"] == 2.0

    # the pipeline's per-threshold results must match the loop bit for bit
    # even in quick mode — only the *speed* gate needs the full-size run
    assert record["identical"]
    # the factor-sharing evidence: 2 factorizations (one per excursion sign,
    # the ordering is threshold-invariant) vs 2 per threshold for the loop
    assert record["pipeline"]["factorizations"] == 2
    assert record["loop"]["factorizations"] == \
        2 * record["workload"]["n_thresholds"]
    assert record["pipeline"]["seconds"] > 0.0
    assert record["gate"]["passed"]


def test_scheduler_benchmark_smoke(tmp_path):
    """Tiny policy sweep: plumbing, replay, parity — no speed gate."""
    json_path = tmp_path / "BENCH_scheduler.json"
    record = run_scheduler_benchmark(n_workers=8, quick=True, json_path=json_path)

    assert json_path.exists()
    on_disk = json.loads(json_path.read_text())
    assert on_disk["benchmark"] == "scheduler_policies"
    assert on_disk["gate"]["threshold"] == 1.3

    assert set(record["policies"]) == {"fifo", "prio", "locality", "blevel", "worksteal"}
    for data in record["policies"].values():
        assert data["makespan_s"] > 0.0
        assert 0.0 < data["parallel_efficiency"] <= 1.0
    # determinism and numerical parity must hold even in quick mode — only
    # the *speed* gate needs the full-size graph
    assert record["gate"]["replay_identical"]
    assert record["gate"]["bit_identical_across_policies"]
    assert record["gate"]["passed"]
    assert set(record["blevel_information_modes"]) == {"exact", "estimated", "blind"}


def test_serving_benchmark_rejects_unmixed_workload():
    with pytest.raises(ValueError, match="mixed workload"):
        run_serving_benchmark(n=16, n_queries=8, n_sigmas=1, n_samples=40)
