"""Quick modes of the seven perf gates, and the format of their records.

Every perf gate under ``benchmarks/`` (``bench_kernel_hotpath``,
``bench_serving_throughput``, ``bench_online_updates``, ``bench_pipeline``,
``bench_planner``, ``bench_scheduler``, ``bench_distributed_serving``) runs
here through its own ``run(quick=True)`` at tiny sizes: no timing gates
(timings at this scale are noise), but the plumbing — backend sweep, phase
attribution, broker statistics, parity verdicts, the stamped record and its
history line — must work, so regressions in the benchmark wiring fail fast
in tier-1.  The committed ``BENCH_history.jsonl`` is checked here too.

Select just these with ``pytest -m perf_smoke``.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks import (
    bench_distributed_serving,
    bench_kernel_hotpath,
    bench_online_updates,
    bench_pipeline,
    bench_planner,
    bench_scheduler,
    bench_serving_throughput,
)
from benchmarks.conftest import HISTORY, append_record, gate_record
from repro.core.kernel_backend import available_backends

pytestmark = pytest.mark.perf_smoke

GATES = (bench_kernel_hotpath, bench_serving_throughput, bench_online_updates,
         bench_pipeline, bench_planner, bench_scheduler, bench_distributed_serving)

FIXED_KEYS = ("gate", "commit", "machine", "cores", "backends", "quick",
              "threshold", "value", "passed", "reason", "detail")


def _written(record: dict, tmp_path) -> dict:
    """Append ``record`` to a scratch history and read its line back."""
    path = tmp_path / "BENCH_history.jsonl"
    append_record(record, path)
    return json.loads(path.read_text().splitlines()[-1])


def _verdicts(section: dict):
    """Every dict in a record that carries a ``passed`` verdict."""
    if "passed" in section:
        yield section
    for value in section.values():
        if isinstance(value, dict):
            yield from _verdicts(value)


def test_hotpath_benchmark_smoke(tmp_path):
    record = bench_kernel_hotpath.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "kernel_hotpath"
    assert on_disk["detail"]["workload"]["n"] == 36

    detail = record["detail"]
    for name in ("numpy", "reference"):
        backend = detail["backends"][name]
        assert backend["kernel_seconds"]["min"] > 0.0
        assert backend["elapsed"]["min"] > 0.0
    # the estimator itself must agree bit for bit even in quick mode — only
    # the *speed* gate needs the full-size run
    assert detail["parity"]["numpy_bit_identical"]
    assert detail["backends"]["numpy"]["probability"] > 0.0
    assert detail["speedup"]["numpy"]["kernel"] > 0.0
    assert record["threshold"] == 1.5
    assert record["cores"] >= 1
    assert set(detail["backends"]) == {"numpy", "reference"}


def test_hotpath_two_sided_smoke(monkeypatch):
    monkeypatch.setattr(bench_kernel_hotpath, "QUICK", dict(
        n=25, tile_size=5, chain_block=16, n_samples=32, repeats=1, one_sided=False))
    detail = bench_kernel_hotpath.run(quick=True)["detail"]
    assert detail["workload"]["one_sided"] is False
    assert detail["parity"]["numpy_bit_identical"]


def test_serving_benchmark_smoke(tmp_path):
    """Tiny serving run: plumbing, stats and parity — no speed gate."""
    record = bench_serving_throughput.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "serving_throughput"
    assert on_disk["detail"]["workload"]["n_queries"] == 8

    detail = record["detail"]
    # the estimator must agree bit for bit even in quick mode — only the
    # *speed* gate needs the full-size run
    assert detail["parity"]["served_bit_identical"]
    stats = detail["serving"]["stats"]
    assert stats["completed"] == 8
    assert stats["failed"] == 0
    # one factorization per distinct covariance, on its owning shard
    assert sum(s["factorize_count"] for s in stats["shards"]) == 2
    assert detail["paths"]["served"]["min"] > 0.0
    assert record["threshold"] == 3.0
    # n_samples=60 is deliberately lane-misaligned: every batch stays per-box
    assert detail["fusion"]["served_modes"] == ["interleaved"]


def test_serving_benchmark_smoke_fused(monkeypatch):
    """A lane-aligned smoke run fuses, and its served answers stay
    bit-identical to direct single-box calls in per-box tiles."""
    monkeypatch.setattr(bench_serving_throughput, "QUICK",
                        dict(bench_serving_throughput.QUICK, n_samples=64, n_shards=1))
    detail = bench_serving_throughput.run(quick=True)["detail"]
    assert detail["parity"]["served_bit_identical"]
    assert "fused" in detail["fusion"]["served_modes"]


def test_distributed_serving_benchmark_smoke(tmp_path):
    """Tiny multi-node run: placement, simulation, parity, JSON — no gate.

    Timing-derived figures at this scale are noise, so the simulated
    *scaling* value is not asserted — only that the plumbing produces it,
    that every covariance got a placement decision, and that the real
    multi-shard broker answered bit-identically to the single-shard one.
    """
    record = bench_distributed_serving.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "distributed_serving"
    assert on_disk["detail"]["workload"]["n_queries"] == 32

    detail = record["detail"]
    n_sigmas = detail["workload"]["n_sigmas"]
    assert detail["parity"]["bit_identical"]
    assert record["threshold"] == 3.0
    assert [sim["n_nodes"] for sim in detail["simulation"]] == [1, 2, 4]
    for sim in detail["simulation"]:
        assert sim["queries_per_second"] > 0.0
        assert 0.0 < sim["parallel_efficiency"] <= 1.0
        assert len(sim["placements"]) == n_sigmas
        assert sim["replicated_factors"] + sim["routed_factors"] == n_sigmas
    # every Sigma's simulated costs are real measurements on this machine
    for profile in detail["calibration"]:
        assert profile["factorize_seconds"] >= 0.0
        assert profile["sweep_seconds_per_query"] > 0.0
        assert profile["method"] in ("dense", "tlr")


def test_planner_benchmark_smoke(tmp_path):
    """Tiny planner run: plumbing, parity verdicts, JSON — no speed gate."""
    record = bench_planner.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "planner_auto"
    assert on_disk["threshold"] == 1.2

    scenarios = record["detail"]["scenarios"]
    assert set(scenarios) == {"small_dense", "banded_tile", "lowrank_tlr"}
    for data in scenarios.values():
        # the planner's choice must execute bit-identically to requesting it
        # explicitly even in quick mode — only the *speed* gate needs size
        assert data["bit_identical_to_chosen"]
        assert data["chosen_method"] in ("dense", "tlr")
        assert data["elapsed"]["auto"]["min"] > 0.0
        assert data["passed"]
    assert record["passed"]


def test_online_update_benchmark_smoke(tmp_path):
    """Tiny update run: plumbing, correctness tolerance, JSON — no speed gate."""
    record = bench_online_updates.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "online_updates"
    assert on_disk["threshold"] == 5.0

    scenarios = record["detail"]["scenarios"]
    assert set(scenarios) == {"rank_1", "rank_4"}
    for data in scenarios.values():
        # the updated factor must match the from-scratch factorization even
        # in quick mode — only the *speed* gate needs the full-size run
        assert data["matched"]
        assert data["rel_diff"] <= 1e-9
        assert data["update"]["min"] > 0.0
        assert data["passed"]
    assert record["passed"]


def test_pipeline_benchmark_smoke(tmp_path):
    """Tiny sweep run: plumbing, factor sharing, bit-identity — no speed gate."""
    record = bench_pipeline.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "pipeline"
    assert on_disk["threshold"] == 2.0

    detail = record["detail"]
    # the pipeline's per-threshold results must match the loop bit for bit
    # even in quick mode — only the *speed* gate needs the full-size run
    assert detail["identical"]
    # the factor-sharing evidence: 2 factorizations (one per excursion sign,
    # the ordering is threshold-invariant) vs 2 per threshold for the loop
    assert detail["pipeline"]["factorizations"] == 2
    assert detail["loop"]["factorizations"] == 2 * detail["workload"]["n_thresholds"]
    assert detail["pipeline"]["min"] > 0.0
    assert record["passed"]


def test_scheduler_benchmark_smoke(tmp_path):
    """Tiny policy sweep: plumbing, replay, parity — no speed gate."""
    record = bench_scheduler.run(quick=True)
    on_disk = _written(record, tmp_path)
    assert on_disk["gate"] == "scheduler_policies"
    assert on_disk["threshold"] == 1.3

    detail = record["detail"]
    assert set(detail["policies"]) == {"fifo", "prio", "locality", "blevel", "worksteal"}
    for data in detail["policies"].values():
        assert data["makespan_s"] > 0.0
        assert 0.0 < data["parallel_efficiency"] <= 1.0
    # determinism and numerical parity must hold even in quick mode — only
    # the *speed* gate needs the full-size graph
    assert detail["replay_identical"]
    assert detail["bit_identical_across_policies"]
    assert record["passed"]
    assert set(detail["blevel_information_modes"]) == {"exact", "estimated", "blind"}


def test_serving_benchmark_rejects_unmixed_workload():
    with pytest.raises(ValueError, match="mixed workload"):
        bench_serving_throughput.workload(16, n_sigmas=1, n_queries=8)


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.__name__.rsplit(".", 1)[-1])
def test_quick_record_fixed_keys(gate):
    """Every record is stamped alike, and a missing verdict says why."""
    record = gate.run(quick=True)
    assert tuple(record) == FIXED_KEYS
    assert record["quick"] is True
    assert record["cores"] == os.cpu_count()
    assert record["backends"] == available_backends()
    assert record["commit"]
    for section in _verdicts(record):
        assert section["passed"] is None or isinstance(section["passed"], bool)
        if section["passed"] is None:
            assert section["reason"]


def test_append_keeps_earlier_lines(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    first = gate_record("append", quick=True, threshold=1.0, value=2.0, passed=True, detail={})
    append_record(first, path)
    before = path.read_bytes()
    append_record(dict(first, value=3.0), path)
    after = path.read_bytes()
    assert after.startswith(before)
    assert after.count(b"\n") == before.count(b"\n") + 1
    assert json.loads(after.splitlines()[-1])["value"] == 3.0


def test_committed_history_lines_carry_fixed_keys():
    lines = HISTORY.read_text().splitlines()
    assert lines
    for number, line in enumerate(lines, start=1):
        record = json.loads(line)
        missing = set(FIXED_KEYS) - set(record)
        assert not missing, f"BENCH_history.jsonl line {number} lacks {sorted(missing)}"
