"""Distributed PMVN: task-graph builders and the closed-form scaling model.

Two complementary tools reproduce the paper's distributed results:

* :func:`build_pmvn_task_graph` + :class:`ClusterSimulator` — an explicit
  task-level simulation (tile Cholesky + PMVN sweep) with block-cyclic
  ownership and per-message communication costs.  Faithful but only
  practical for moderate tile counts (a few tens of thousands of tasks).
* :class:`DistributedPMVNModel` — a closed-form model of the same phases
  (compute, panel broadcasts, per-stage synchronization) used for the
  paper-scale problem sizes of Figure 7 (n up to 760,384) and Table III.

Both are parameterized by :class:`KernelRates`, which can come from the
analytic machine peaks or from :func:`repro.perf.calibration.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.cluster import ClusterSpec
from repro.distributed.simulator import ClusterSimulator, SimTask, SimulationResult
from repro.perf.calibration import CalibrationResult
from repro.runtime.estimates import ModelEstimator
from repro.tile.dense_kernels import gemm_flops, potrf_flops, trsm_flops
from repro.utils.validation import check_positive_int

__all__ = [
    "KernelRates",
    "build_cholesky_task_graph",
    "build_pmvn_task_graph",
    "simulate_pmvn",
    "DistributedPMVNModel",
]


@dataclass
class KernelRates:
    """Per-core kernel rates driving the task costs.

    Attributes
    ----------
    core_gflops : float
        Sustained double-precision GFLOP/s of one core on BLAS-3 kernels.
    qmc_rows_per_second : float
        Chain-row updates per second of the QMC kernel on one core
        (each update is one ``Phi``/``Phi^{-1}`` pair plus the row axpy).
    """

    core_gflops: float = 20.0
    qmc_rows_per_second: float = 2.0e7

    @classmethod
    def from_calibration(cls, calibration: CalibrationResult, cores_used: int = 1) -> "KernelRates":
        """Derive per-core rates from a local calibration run.

        The local GEMM measurement uses the whole multi-threaded BLAS, so it
        is divided by the number of cores the BLAS employed.
        """
        cores_used = max(1, int(cores_used))
        return cls(
            core_gflops=calibration.gemm_gflops / cores_used,
            qmc_rows_per_second=calibration.qmc_rows_per_second,
        )

    @classmethod
    def from_machine(cls, node, blas_efficiency: float = 1.0, phi_ns: float = 300.0) -> "KernelRates":
        """Derive per-core rates from a :class:`~repro.perf.machines.MachineSpec`.

        ``phi_ns`` is the cost of one QMC row-chain update (a ``Phi``/``Phi^{-1}``
        pair plus the intra-tile dot-product contribution); ~300 ns matches
        the measured rate of the vectorized kernel at tile size ~1000.
        ``core_gflops`` is the *peak* per-core rate; phase-specific efficiency
        factors are applied by the cost models.
        """
        core_peak = node.clock_ghz * node.flops_per_cycle
        return cls(
            core_gflops=core_peak * blas_efficiency,
            qmc_rows_per_second=1.0 / (phi_ns * 1e-9),
        )

    def gemm_seconds(self, m: int, n: int, k: int) -> float:
        return gemm_flops(m, n, k) / (self.core_gflops * 1e9)

    def potrf_seconds(self, nb: int) -> float:
        return potrf_flops(nb) / (self.core_gflops * 1e9)

    def trsm_seconds(self, m: int, nb: int) -> float:
        return trsm_flops(m, nb) / (self.core_gflops * 1e9)

    def qmc_seconds(self, rows: int, chains: int) -> float:
        return rows * chains / self.qmc_rows_per_second


def _n_tiles(n: int, tile_size: int) -> int:
    return (n + tile_size - 1) // tile_size


def build_cholesky_task_graph(
    n: int,
    tile_size: int,
    cluster: ClusterSpec,
    rates: KernelRates,
    method: str = "dense",
    mean_rank: float = 12.0,
) -> list[SimTask]:
    """Symbolic task graph of the tiled (dense or TLR) Cholesky factorization.

    Tile ownership follows the cluster's 2D block-cyclic map; each task costs
    its tag's :meth:`~repro.runtime.ModelEstimator.price`, the rank-``k``
    (``lr_*``) price for the TLR trsm/syrk/gemm at ``mean_rank``.
    """
    n = check_positive_int(n, "n")
    tile_size = check_positive_int(tile_size, "tile_size")
    nt = _n_tiles(n, tile_size)
    nb = tile_size
    tlr = method.lower() == "tlr"
    price = ModelEstimator(rates, tile_size, tile_size, mean_rank).price
    lr = "lr_" if tlr else ""
    tile_bytes = nb * nb * 8.0
    lr_bytes = 2.0 * nb * float(mean_rank) * 8.0

    tasks: list[SimTask] = []
    # indices of the task that last wrote each tile
    last_writer: dict[tuple[int, int], int] = {}

    def add(name, cost, node, deps, out_bytes, tag, priority=0) -> int:
        tasks.append(SimTask(name, cost, node, deps=list(deps), output_bytes=out_bytes, tag=tag, priority=priority))
        return len(tasks) - 1

    for kk in range(nt):
        deps = [last_writer[(kk, kk)]] if (kk, kk) in last_writer else []
        potrf = add(
            f"potrf({kk})", price("potrf"), cluster.owner(kk, kk), deps, tile_bytes, "potrf", priority=nt - kk
        )
        last_writer[(kk, kk)] = potrf
        for i in range(kk + 1, nt):
            deps = [potrf]
            if (i, kk) in last_writer:
                deps.append(last_writer[(i, kk)])
            trsm = add(
                f"trsm({i},{kk})", price(lr + "trsm"), cluster.owner(i, kk), deps,
                lr_bytes if tlr else tile_bytes, "trsm", priority=nt - kk,
            )
            last_writer[(i, kk)] = trsm
        for i in range(kk + 1, nt):
            deps = [last_writer[(i, kk)]]
            if (i, i) in last_writer:
                deps.append(last_writer[(i, i)])
            syrk = add(
                f"syrk({i},{kk})", price(lr + "syrk"), cluster.owner(i, i), deps, tile_bytes, "syrk",
                priority=nt - kk - 1,
            )
            last_writer[(i, i)] = syrk
            for j in range(kk + 1, i):
                deps = [last_writer[(i, kk)], last_writer[(j, kk)]]
                if (i, j) in last_writer:
                    deps.append(last_writer[(i, j)])
                gemm = add(
                    f"gemm({i},{j},{kk})", price(lr + "gemm"), cluster.owner(i, j), deps,
                    lr_bytes if tlr else tile_bytes, "gemm", priority=nt - kk - 1,
                )
                last_writer[(i, j)] = gemm
    return tasks


def build_pmvn_task_graph(
    n: int,
    n_samples: int,
    tile_size: int,
    cluster: ClusterSpec,
    rates: KernelRates,
    method: str = "dense",
    mean_rank: float = 12.0,
    chain_block: int | None = None,
    include_cholesky: bool = True,
) -> list[SimTask]:
    """Symbolic task graph of the full PMVN (Cholesky + integration sweep).

    Each task costs its tag's :meth:`~repro.runtime.ModelEstimator.price`
    (``lr_sweep_gemm`` for the TLR limit propagation at ``mean_rank``).
    """
    n_samples = check_positive_int(n_samples, "n_samples")
    chain_block = chain_block or tile_size
    nt = _n_tiles(n, tile_size)
    nc = _n_tiles(n_samples, chain_block)
    nb = tile_size
    price = ModelEstimator(rates, tile_size, chain_block, mean_rank).price
    qmc = price("qmc")
    sweep_gemm = price("lr_sweep_gemm" if method.lower() == "tlr" else "sweep_gemm")

    tasks = build_cholesky_task_graph(n, tile_size, cluster, rates, method, mean_rank) if include_cholesky else []
    # index of the Cholesky task producing L[i, j]
    chol_writer: dict[tuple[int, int], int] = {}
    for idx, task in enumerate(tasks):
        name = task.name
        if name.startswith("potrf("):
            kk = int(name[6:-1])
            chol_writer[(kk, kk)] = idx
        elif name.startswith("trsm("):
            i, kk = (int(v) for v in name[5:-1].split(","))
            chol_writer[(i, kk)] = idx
    y_bytes = nb * chain_block * 8.0

    def chol_dep(i: int, j: int) -> list[int]:
        return [chol_writer[(i, j)]] if (i, j) in chol_writer else []

    def add(name, cost, node, deps, out_bytes, tag, priority=0) -> int:
        tasks.append(SimTask(name, cost, node, deps=list(deps), output_bytes=out_bytes, tag=tag, priority=priority))
        return len(tasks) - 1

    qmc_writer: dict[tuple[int, int], int] = {}     # (row block, chain block) -> producing task
    limits_writer: dict[tuple[int, int], int] = {}  # last update of A/B block (j, c)

    for c in range(nc):
        deps = chol_dep(0, 0)
        idx = add(
            f"qmc(0,{c})", qmc, cluster.owner(0, c), deps, y_bytes, "qmc",
            priority=2 * nt,
        )
        qmc_writer[(0, c)] = idx
        limits_writer[(0, c)] = idx
    for r in range(1, nt):
        for j in range(r, nt):
            for c in range(nc):
                deps = [qmc_writer[(r - 1, c)]] + chol_dep(j, r - 1)
                if (j, c) in limits_writer:
                    deps.append(limits_writer[(j, c)])
                idx = add(
                    f"sweep_gemm({j},{c},{r - 1})", sweep_gemm, cluster.owner(j, c), deps, 0.0, "sweep_gemm",
                    priority=2 * (nt - r) + 1,
                )
                limits_writer[(j, c)] = idx
        for c in range(nc):
            deps = [limits_writer[(r, c)]] + chol_dep(r, r)
            idx = add(
                f"qmc({r},{c})", qmc, cluster.owner(r, c), deps, y_bytes, "qmc",
                priority=2 * (nt - r),
            )
            qmc_writer[(r, c)] = idx
            limits_writer[(r, c)] = idx
    return tasks


def simulate_pmvn(
    n: int,
    n_samples: int,
    tile_size: int,
    cluster: ClusterSpec,
    rates: KernelRates | None = None,
    method: str = "dense",
    mean_rank: float = 12.0,
    chain_block: int | None = None,
) -> SimulationResult:
    """Build the PMVN task graph and run it through the cluster simulator."""
    rates = rates or KernelRates.from_machine(cluster.node, cluster.blas_efficiency)
    tasks = build_pmvn_task_graph(
        n, n_samples, tile_size, cluster, rates, method=method, mean_rank=mean_rank, chain_block=chain_block
    )
    return ClusterSimulator(cluster).run(tasks)


@dataclass
class DistributedPMVNModel:
    """Closed-form scaling model for paper-scale problem sizes (Figure 7).

    The model decomposes the runtime into

    * **Cholesky compute** — dense ``n^3/3`` flops or the TLR flop count,
      spread over all cores with a strong-scaling efficiency term.  The TLR
      tasks have very low arithmetic intensity, so they run at a fraction
      (``tlr_kernel_efficiency``) of the dense GEMM rate — this is why the
      paper measures only 1.9x-5.2x for the TLR Cholesky alone on Shaheen
      rather than the shared-memory 20x.
    * **Cholesky communication** — per-step panel broadcasts along the grid
      columns plus a latency term per tile step, plus a per-task runtime
      overhead (StarPU-MPI task management).
    * **Sweep compute** — GEMM propagation (dense or low-rank applies), the
      format-independent QMC-kernel row updates (``Phi``/``Phi^{-1}`` plus the
      intra-tile dot products), bounded below by the critical path
      ``nt x (per-tile QMC time)``: the row blocks of one chain block are
      inherently sequential, so beyond ``N / chain_block``-way parallelism
      extra nodes do not help this phase.
    * **Sweep communication** — per row-block stage the ``Y`` panel moves
      down the grid column (bandwidth) and the stage synchronizes (latency).

    The sweep is identical for dense and TLR except for the off-diagonal
    GEMM propagation, which is why the end-to-end distributed speedup
    compresses to the 1.3x-1.8x band reported in Table III.
    """

    cluster: ClusterSpec
    rates: KernelRates
    tile_size: int = 980
    mean_rank: float = 20.0
    chain_block: int = 980
    #: BLAS efficiency of the dense Cholesky kernels (DPOTRF/DGEMM on nb x nb
    #: tiles run close to peak)
    cholesky_efficiency: float = 0.75
    #: efficiency of the sweep's tall-skinny limit-propagation GEMMs
    sweep_gemm_efficiency: float = 0.30
    #: fraction of the dense GEMM rate the low-arithmetic-intensity TLR
    #: kernels achieve (small U/V GEMMs, recompression QR/SVD)
    tlr_kernel_efficiency: float = 0.15
    #: load-imbalance growth of the TLR Cholesky with node count: tile ranks
    #: vary widely (Figure 5), so a rank-oblivious block-cyclic distribution
    #: leaves nodes idle; the imbalance multiplier is 1 + coeff * log2(P)
    tlr_imbalance_coeff: float = 1.0
    #: whether the sweep's limit propagation applies low-rank L tiles.  The
    #: paper's distributed implementation performs steps (b)-(d) in dense
    #: (Section IV-C), so the default keeps the sweep format-independent.
    sweep_uses_lowrank: bool = False
    #: per-task runtime/management overhead in seconds (StarPU-MPI)
    task_overhead_s: float = 25e-6

    def _cores(self) -> float:
        return float(self.cluster.total_cores)

    def _scaling_efficiency(self) -> float:
        # mild degradation with node count (load imbalance at the tile level)
        p = self.cluster.n_nodes
        return 1.0 / (1.0 + 0.04 * np.log2(max(p, 1)))

    def _tlr_imbalance(self) -> float:
        return 1.0 + self.tlr_imbalance_coeff * np.log2(max(self.cluster.n_nodes, 1))

    # -- Cholesky phase -----------------------------------------------------------
    def cholesky_time(self, n: int, method: str = "dense") -> float:
        nb = self.tile_size
        nt = _n_tiles(n, nb)
        n_tasks = nt * (nt + 1) * (nt + 2) / 6.0
        if method == "dense":
            flops = n**3 / 3.0
            rate = self.rates.core_gflops * self.cholesky_efficiency
            imbalance = 1.0
        else:
            from repro.tlr.cholesky import tlr_cholesky_flops

            flops = tlr_cholesky_flops(n, nb, self.mean_rank)
            rate = self.rates.core_gflops * self.tlr_kernel_efficiency
            imbalance = self._tlr_imbalance()
        compute = flops / (self._cores() * rate * 1e9) / self._scaling_efficiency() * imbalance
        p, q = self.cluster.grid
        panel_bytes = n * nb * 8.0 if method == "dense" else n * max(self.mean_rank, 1.0) * 2.0 * 8.0
        comm = nt * (self.cluster.network_latency_us * 1e-6 * np.log2(max(p * q, 2))) + (
            nt * panel_bytes / q / (self.cluster.network_bandwidth_gbs * 1e9)
        )
        # critical path: nt sequential panel steps (POTRF + one TRSM + broadcast)
        critical_path = nt * (
            (nb**3 / 3.0 + nb**3) / (self.rates.core_gflops * self.cholesky_efficiency * 1e9)
            + 2.0 * self.cluster.network_latency_us * 1e-6 * np.log2(max(p * q, 2))
        )
        overhead = n_tasks * self.task_overhead_s / self.cluster.n_nodes
        return max(compute + comm, critical_path) + overhead

    # -- integration sweep --------------------------------------------------------
    def sweep_time(self, n: int, n_samples: int, method: str = "dense") -> float:
        nb = self.tile_size
        cb = min(self.chain_block, n_samples)
        nt = _n_tiles(n, nb)
        n_chain_blocks = _n_tiles(n_samples, cb)
        # off-diagonal limit propagation (format-dependent only when the
        # implementation applies low-rank L tiles in the sweep)
        if method == "dense" or not self.sweep_uses_lowrank:
            gemm_flops = 2.0 * n * n * n_samples
            gemm_rate = self.rates.core_gflops * self.sweep_gemm_efficiency
        else:
            k = max(self.mean_rank, 1.0)
            lr_tiles = nt * (nt - 1) / 2.0
            gemm_flops = lr_tiles * 4.0 * nb * k * n_samples
            gemm_rate = self.rates.core_gflops * self.sweep_gemm_efficiency
        gemm = gemm_flops / (self._cores() * gemm_rate * 1e9) / self._scaling_efficiency()
        # QMC kernel: n * N row-chain updates, identical for dense and TLR
        qmc_work = n * n_samples / (self.rates.qmc_rows_per_second * self._cores())
        qmc_critical_path = nt * (nb * cb / self.rates.qmc_rows_per_second)
        # chain blocks provide the only parallelism for the QMC phase
        qmc_parallel_limit = nt * nb * n_samples / self.rates.qmc_rows_per_second / max(
            min(n_chain_blocks, self._cores()), 1.0
        )
        qmc = max(qmc_work, qmc_critical_path, qmc_parallel_limit)
        p, q = self.cluster.grid
        y_panel_bytes = nb * n_samples * 8.0
        comm = nt * (
            self.cluster.network_latency_us * 1e-6 * np.log2(max(p, 2))
            + y_panel_bytes / q / (self.cluster.network_bandwidth_gbs * 1e9)
        )
        n_sweep_tasks = (nt * (nt + 1) / 2.0 + nt) * n_chain_blocks
        overhead = n_sweep_tasks * self.task_overhead_s / self.cluster.n_nodes
        return gemm + qmc + comm + overhead

    def total_time(self, n: int, n_samples: int, method: str = "dense") -> float:
        return self.cholesky_time(n, method) + self.sweep_time(n, n_samples, method)

    def speedup_tlr_over_dense(self, n: int, n_samples: int) -> float:
        return self.total_time(n, n_samples, "dense") / self.total_time(n, n_samples, "tlr")

    def cholesky_speedup_tlr_over_dense(self, n: int) -> float:
        return self.cholesky_time(n, "dense") / self.cholesky_time(n, "tlr")

    def breakdown(self, n: int, n_samples: int, method: str = "dense") -> dict[str, float]:
        return {
            "cholesky": self.cholesky_time(n, method),
            "sweep": self.sweep_time(n, n_samples, method),
            "total": self.total_time(n, n_samples, method),
        }
