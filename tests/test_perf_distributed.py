"""Tests for the performance models and the simulated distributed cluster."""

import pytest

from repro.distributed import (
    ClusterSimulator,
    ClusterSpec,
    DistributedPMVNModel,
    SimTask,
    build_cholesky_task_graph,
    build_pmvn_task_graph,
    process_grid,
    simulate_pmvn,
)
from repro.distributed.pmvn_model import KernelRates
from repro.perf import (
    MACHINES,
    PMVNCostModel,
    calibrate,
    get_machine,
    sweep_flops,
)
from repro.tile.dense_kernels import potrf_flops
from repro.tlr import tlr_cholesky_flops


class TestMachines:
    def test_paper_testbeds_present(self):
        for key in ("intel-icelake-56", "intel-cascadelake-40", "amd-milan-64", "amd-naples-128", "shaheen-xc40-node"):
            assert key in MACHINES

    def test_peak_gflops_positive_and_ordered(self):
        icelake = get_machine("intel-icelake-56")
        naples = get_machine("amd-naples-128")
        assert icelake.peak_gflops > 0
        assert icelake.peak_gflops > naples.peak_gflops / 2  # same order of magnitude

    def test_sustained_efficiency_bounds(self):
        m = get_machine("amd-milan-64")
        assert m.sustained_gflops(0.5) == pytest.approx(0.5 * m.peak_gflops)
        with pytest.raises(ValueError):
            m.sustained_gflops(0.0)

    def test_unknown_machine(self):
        with pytest.raises(ValueError):
            get_machine("cray-1")


class TestCalibration:
    def test_calibration_rates_positive(self):
        cal = calibrate(tile_size=64, rank=4, n_chains=64)
        assert cal.gemm_gflops > 0.1
        assert cal.potrf_gflops > 0.01
        assert cal.qmc_rows_per_second > 1e3
        assert cal.lowrank_gemm_gflops > 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            calibrate(tile_size=0)


class TestCostModels:
    def test_flop_formulas(self):
        assert potrf_flops(1000) == pytest.approx(1000**3 / 3)
        assert tlr_cholesky_flops(10_000, 500, 10) < potrf_flops(10_000)
        assert sweep_flops(1000, 100, 100) > 0
        assert sweep_flops(1000, 100, 100, mean_rank=5) < sweep_flops(1000, 100, 100)

    def test_shared_memory_tlr_speedup_grows_with_samples(self):
        """Table II shape: TLR advantage grows with the QMC sample size."""
        model = PMVNCostModel(get_machine("intel-icelake-56"))
        s_small = model.speedup_tlr_over_dense(40_000, 100, tile_size=500, mean_rank=10)
        s_large = model.speedup_tlr_over_dense(40_000, 10_000, tile_size=500, mean_rank=10)
        assert s_large >= s_small
        assert s_small > 1.0

    def test_predict_time_increases_with_dimension(self):
        m = get_machine("amd-milan-64")
        t1 = PMVNCostModel(m).total_time(4_900, 10_000)
        t2 = PMVNCostModel(m).total_time(78_400, 10_000)
        assert t2 > t1

    def test_dense_slower_than_tlr(self):
        m = get_machine("intel-cascadelake-40")
        dense = PMVNCostModel(m).total_time(40_000, 10_000, "dense")
        tlr = PMVNCostModel(m).total_time(40_000, 10_000, "tlr")
        assert dense > tlr


class TestClusterSpec:
    def test_process_grid_near_square(self):
        assert process_grid(16) == (4, 4)
        assert process_grid(32) == (4, 8)
        assert process_grid(512) == (16, 32)
        assert process_grid(7) == (1, 7)

    def test_owner_within_range(self):
        cluster = ClusterSpec(8)
        owners = {cluster.owner(i, j) for i in range(10) for j in range(10)}
        assert owners.issubset(set(range(8)))

    def test_transfer_time_monotone_in_size(self):
        cluster = ClusterSpec(4)
        assert cluster.transfer_seconds(1e9) > cluster.transfer_seconds(1e3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)
        with pytest.raises(ValueError):
            ClusterSpec(4, network_bandwidth_gbs=0.0)


class TestClusterSimulator:
    def test_single_task(self):
        cluster = ClusterSpec(2)
        result = ClusterSimulator(cluster, cores_per_node=1).run([SimTask("a", 1.0, 0)])
        assert result.makespan == pytest.approx(1.0)
        assert result.n_tasks == 1

    def test_chain_serializes(self):
        cluster = ClusterSpec(1)
        tasks = [SimTask("t0", 1.0, 0)]
        for i in range(1, 4):
            tasks.append(SimTask(f"t{i}", 1.0, 0, deps=[i - 1]))
        result = ClusterSimulator(cluster, cores_per_node=4).run(tasks)
        assert result.makespan == pytest.approx(4.0)

    def test_independent_tasks_parallelize(self):
        cluster = ClusterSpec(1)
        tasks = [SimTask(f"t{i}", 1.0, 0) for i in range(4)]
        result = ClusterSimulator(cluster, cores_per_node=4).run(tasks)
        assert result.makespan == pytest.approx(1.0)
        assert result.parallel_efficiency == pytest.approx(1.0)

    def test_remote_dependency_pays_communication(self):
        cluster = ClusterSpec(2, network_bandwidth_gbs=1.0, network_latency_us=1000.0)
        tasks = [
            SimTask("producer", 1.0, 0, output_bytes=1e9),
            SimTask("consumer", 1.0, 1, deps=[0]),
        ]
        result = ClusterSimulator(cluster, cores_per_node=1).run(tasks)
        assert result.makespan > 2.5  # 1 + transfer(>1s) + 1
        assert result.communication_seconds > 0.5

    def test_local_dependency_pays_nothing(self):
        cluster = ClusterSpec(2, network_bandwidth_gbs=1.0)
        tasks = [
            SimTask("producer", 1.0, 0, output_bytes=1e9),
            SimTask("consumer", 1.0, 0, deps=[0]),
        ]
        result = ClusterSimulator(cluster, cores_per_node=1).run(tasks)
        assert result.makespan == pytest.approx(2.0)
        assert result.communication_seconds == 0.0

    def test_cycle_detected(self):
        cluster = ClusterSpec(1)
        tasks = [SimTask("a", 1.0, 0, deps=[1]), SimTask("b", 1.0, 0, deps=[0])]
        with pytest.raises(ValueError, match="cycle"):
            ClusterSimulator(cluster).run(tasks)

    def test_invalid_node_assignment(self):
        cluster = ClusterSpec(2)
        with pytest.raises(ValueError):
            ClusterSimulator(cluster).run([SimTask("a", 1.0, 7)])

    def test_empty_graph(self):
        result = ClusterSimulator(ClusterSpec(2)).run([])
        assert result.makespan == 0.0


class TestPMVNTaskGraphs:
    def test_cholesky_task_count(self):
        cluster = ClusterSpec(4)
        rates = KernelRates()
        tasks = build_cholesky_task_graph(100, 25, cluster, rates)
        nt = 4
        expected = nt + nt * (nt - 1) // 2 + nt * (nt - 1) // 2 + nt * (nt - 1) * (nt - 2) // 6
        assert len(tasks) == expected

    def test_tlr_cholesky_cheaper_tasks(self):
        cluster = ClusterSpec(4)
        rates = KernelRates()
        dense = build_cholesky_task_graph(200, 25, cluster, rates, method="dense")
        tlr = build_cholesky_task_graph(200, 25, cluster, rates, method="tlr", mean_rank=3)
        assert sum(t.cost for t in tlr) < sum(t.cost for t in dense)

    def test_pmvn_graph_contains_sweep_tasks(self):
        cluster = ClusterSpec(2)
        rates = KernelRates()
        tasks = build_pmvn_task_graph(100, 80, 25, cluster, rates, chain_block=40)
        tags = {t.tag for t in tasks}
        assert {"potrf", "qmc", "sweep_gemm"}.issubset(tags)

    @pytest.mark.parametrize("method", ["dense", "tlr"])
    def test_task_costs_are_the_estimator_prices(self, method):
        """Every task costs its tag's ModelEstimator price (``lr_*`` for TLR)."""
        from repro.runtime import ModelEstimator

        rates = KernelRates(core_gflops=37.3, qmc_rows_per_second=1.3e7)
        lowrank = {"trsm", "syrk", "gemm", "sweep_gemm"} if method == "tlr" else set()
        for n, nb, chain_block, rank in ((400, 50, 80, 7.6), (300, 64, None, 12.0), (250, 50, 40, 0.5)):
            tasks = build_pmvn_task_graph(n, 256, nb, ClusterSpec(4), rates, method=method,
                                          mean_rank=rank, chain_block=chain_block)
            price = ModelEstimator(rates, nb, chain_block or nb, rank).price
            for task in tasks:
                tag = f"lr_{task.tag}" if task.tag in lowrank else task.tag
                assert task.cost == price(tag), task.name

    def test_simulated_scaling_improves_with_nodes(self):
        """Strong scaling holds once there are enough tiles to distribute."""
        rates = KernelRates(core_gflops=10.0, qmc_rows_per_second=5e6)
        small = simulate_pmvn(20_000, 2_000, 1_000, ClusterSpec(1), rates)
        large = simulate_pmvn(20_000, 2_000, 1_000, ClusterSpec(8), rates)
        assert large.makespan <= small.makespan * 1.05

    def test_simulated_tlr_not_slower(self):
        rates = KernelRates(core_gflops=10.0, qmc_rows_per_second=5e6)
        dense = simulate_pmvn(2000, 500, 250, ClusterSpec(4), rates, method="dense")
        tlr = simulate_pmvn(2000, 500, 250, ClusterSpec(4), rates, method="tlr", mean_rank=8)
        assert tlr.makespan <= dense.makespan * 1.05


class TestDistributedModel:
    @pytest.fixture
    def rates(self):
        return KernelRates.from_machine(get_machine("shaheen-xc40-node"))

    def test_table3_band(self, rates):
        """Table III: end-to-end TLR speedup must sit in a modest band (1.2-2.5x),
        far below the Cholesky-only speedup."""
        for nodes, n in [(16, 108_900), (128, 360_000), (512, 760_384)]:
            model = DistributedPMVNModel(ClusterSpec(nodes), rates)
            e2e = model.speedup_tlr_over_dense(n, 10_000)
            chol_only = model.cholesky_speedup_tlr_over_dense(n)
            assert 1.1 < e2e < 3.0
            assert chol_only > e2e

    def test_fig7_time_grows_with_n(self, rates):
        model = DistributedPMVNModel(ClusterSpec(64), rates)
        times = [model.total_time(n, 10_000, "dense") for n in (108_900, 266_256, 360_000)]
        assert times == sorted(times)

    def test_fig7_time_shrinks_with_nodes(self, rates):
        times = [
            DistributedPMVNModel(ClusterSpec(nodes), rates).total_time(266_256, 10_000, "dense")
            for nodes in (16, 64, 256)
        ]
        assert times[0] > times[1] > times[2]

    def test_breakdown_sums_to_total(self, rates):
        model = DistributedPMVNModel(ClusterSpec(32), rates)
        bd = model.breakdown(200_000, 10_000, "dense")
        assert bd["total"] == pytest.approx(bd["cholesky"] + bd["sweep"])

    def test_sweep_is_format_independent_by_default(self, rates):
        model = DistributedPMVNModel(ClusterSpec(64), rates)
        assert model.sweep_time(200_000, 10_000, "dense") == pytest.approx(
            model.sweep_time(200_000, 10_000, "tlr")
        )

    def test_lowrank_sweep_option_reduces_sweep_time(self, rates):
        model = DistributedPMVNModel(ClusterSpec(64), rates, sweep_uses_lowrank=True)
        assert model.sweep_time(200_000, 10_000, "tlr") < model.sweep_time(200_000, 10_000, "dense")
