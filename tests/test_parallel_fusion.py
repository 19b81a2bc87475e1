"""Tests for the parallel-kernel round: fallback chains, thread-count
control, and cross-box vs per-box sweep layout bit-parity.

Three contracts from the raw-speed PR:

* **fallback chains** — ``numba-parallel`` degrades to ``numba`` to
  ``numpy`` with a one-time warning when numba is absent; ``"cupy"`` is not
  a backend at all (an explicit request raises the unknown-name error);
* **thread control** — ``SolverConfig.kernel_threads`` /
  ``set_kernel_threads`` / ``$REPRO_KERNEL_THREADS`` resolve in that order
  and reject nonsense early;
* **layout parity** — a batch swept in cross-box (``"fused"``) tiles is
  bitwise identical to a loop of single-box sweeps in per-box tiles, across
  seeds, methods, limit kinds (``+inf`` upper rows included, which skip the
  B-side propagation), prefix output and worker counts, and the layout rule
  only fuses lane-aligned, prefix-free batches of several boxes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import mvn_probability_batch
from repro.core import factorize
from repro.core.kernel_backend import (
    BACKEND_ENV_VAR,
    KERNEL_THREADS_ENV_VAR,
    _numba_kernel_py,
    _numba_parallel_kernel_py,
    available_backends,
    get_backend,
    resolve_backend_name,
    resolve_kernel_threads,
    set_kernel_threads,
)
from repro.core.pmvn import PMVNOptions, pmvn_integrate, pmvn_integrate_batch
from repro.runtime import Runtime
from repro.solver import SolverConfig
from repro.stats.qmc import qmc_samples

numba_missing = "numba" not in available_backends()


@pytest.fixture
def spd36(rng):
    from repro.kernels import ExponentialKernel, Geometry, build_covariance

    geom = Geometry.regular_grid(6, 6)
    return build_covariance(ExponentialKernel(1.0, 0.25), geom.locations, nugget=1e-8)


#: box kinds whose upper limits are +inf on whole 12-row blocks, on some
#: rows of every block, or everywhere (a confidence-region prefix sweep)
UPPER_INF = ("inf-blocks", "inf-rows", "inf-upper")


def _boxes(n, rng, kinds=("one-sided", "two-sided", "mixed")):
    out = []
    block = np.arange(n) // 12
    for kind in kinds:
        if kind == "one-sided":
            out.append((np.full(n, -np.inf), rng.uniform(0.5, 2.0, n)))
        elif kind == "two-sided":
            out.append((-rng.uniform(1.0, 3.0, n), rng.uniform(0.5, 2.0, n)))
        elif kind == "inf-blocks":
            out.append((-rng.uniform(1.0, 3.0, n),
                        np.where(block == 1, rng.uniform(0.5, 2.0, n), np.inf)))
        elif kind == "inf-rows":
            out.append((-rng.uniform(1.0, 3.0, n), np.where(np.arange(n) % 3 == 0, np.inf, 1.2)))
        elif kind == "inf-upper":
            out.append((np.where(block == 2, -np.inf, -1.5), np.full(n, np.inf)))
        else:
            out.append((
                np.where(np.arange(n) % 3 == 0, -np.inf, -1.5),
                np.where(np.arange(n) % 5 == 0, np.inf, 1.2),
            ))
    return out


class TestFallbackChains:
    @pytest.mark.skipif(not numba_missing, reason="numba is installed here")
    def test_numba_parallel_falls_back_to_numpy(self):
        import repro.core.kernel_backend as kb

        kb._FALLBACK_WARNED = False
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("numba-parallel")
        assert backend.name == "numpy"
        # the warning is one-time: a second request stays silent
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert get_backend("numba-parallel").name == "numpy"

    @pytest.mark.skipif(not numba_missing, reason="numba is installed here")
    def test_auto_prefers_cpu_chain_never_cupy(self):
        assert get_backend("auto").name == "numpy"
        assert "cupy" not in available_backends()

    @pytest.mark.skipif(not numba_missing, reason="numba is installed here")
    def test_config_accepts_parallel_name_without_numba(self):
        # validation must not require numba: the fallback happens at dispatch
        assert SolverConfig(backend="numba-parallel").backend == "numba-parallel"

    def test_cupy_absent_is_absent(self):
        """No GPU backend exists: "cupy" is an unknown name everywhere, and
        the error lists what this install can run."""
        assert "cupy" not in available_backends()
        unknown = "unknown kernel backend 'cupy'.*available on this install"
        with pytest.raises(ValueError, match=unknown):
            resolve_backend_name("cupy")
        with pytest.raises(ValueError, match=unknown):
            get_backend("cupy")
        with pytest.raises(ValueError, match=unknown):
            SolverConfig(backend="cupy")

    def test_unknown_env_backend_names_the_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "tpu")
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR):
            resolve_backend_name(None)

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="available on this install"):
            resolve_backend_name("vulkan")

    @pytest.mark.skipif(not numba_missing, reason="numba is installed here")
    def test_require_available_rejects_missing_numba(self):
        with pytest.raises(ValueError, match="not available"):
            resolve_backend_name("numba-parallel", require_available=True)


class TestParallelKernelBody:
    def test_parallel_recursion_bit_identical_to_serial(self, small_spd):
        """The prange body is the serial numba body, chain by chain.

        Runs the exact functions numba compiles (pure-Python here, with
        ``prange = range``), so the staged prefix reduction and the per-chain
        arithmetic are covered even on installs without numba.
        """
        n = small_spd.shape[0]
        c = 96
        l_tile = np.linalg.cholesky(small_spd)
        inv_diag = 1.0 / np.diag(l_tile)
        r_tile = qmc_samples(n, c, rng=5)
        a_tile = np.full((n, c), -np.inf)
        a_tile[::2] = -1.4
        b_tile = np.full((n, c), 1.1)
        b_tile[1::4] = np.inf
        for do_prefix in (False, True):
            p_s, p_p = np.ones(c), np.ones(c)
            y_s, y_p = np.zeros((n, c)), np.zeros((n, c))
            ps_s, ps_p = np.zeros(n), np.zeros(n)
            qq_s, qq_p = np.zeros(n), np.zeros(n)
            _numba_kernel_py(l_tile, r_tile, a_tile.copy(), b_tile.copy(),
                             p_s, y_s, inv_diag, ps_s, qq_s, do_prefix)
            _numba_parallel_kernel_py(l_tile, r_tile, a_tile.copy(), b_tile.copy(),
                                      p_p, y_p, inv_diag, ps_p, qq_p, do_prefix)
            np.testing.assert_array_equal(p_p, p_s)
            np.testing.assert_array_equal(y_p, y_s)
            np.testing.assert_array_equal(ps_p, ps_s)
            np.testing.assert_array_equal(qq_p, qq_s)

    @pytest.mark.skipif(numba_missing, reason="numba not installed")
    def test_compiled_parallel_bit_identical_to_serial(self, spd36, rng):
        n = spd36.shape[0]
        a, b = np.full(n, -np.inf), rng.uniform(0.5, 2.0, n)
        factor = factorize(spd36, method="dense", tile_size=7)
        serial = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=600, rng=3, backend="numba"))
        for threads in (1, 2):
            par = pmvn_integrate(a, b, factor, PMVNOptions(
                n_samples=600, rng=3, backend="numba-parallel", kernel_threads=threads))
            assert par.details["backend"] == "numba-parallel"
            assert par.probability == serial.probability
            assert par.error == serial.error


class TestThreadControl:
    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV_VAR, raising=False)
        assert resolve_kernel_threads() is None
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "3")
        assert resolve_kernel_threads() == 3
        prev = set_kernel_threads(2)
        try:
            assert resolve_kernel_threads() == 2          # setting beats env
            assert resolve_kernel_threads(5) == 5         # explicit beats both
        finally:
            set_kernel_threads(prev)
        assert resolve_kernel_threads() == 3

    def test_set_returns_previous(self):
        prev = set_kernel_threads(4)
        try:
            assert set_kernel_threads(None) == 4
        finally:
            set_kernel_threads(prev)

    def test_invalid_threads_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="kernel_threads"):
            set_kernel_threads(0)
        with pytest.raises(ValueError):
            resolve_kernel_threads(-1)
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=KERNEL_THREADS_ENV_VAR):
            resolve_kernel_threads()

    def test_config_validates_threads_and_fusion(self):
        assert SolverConfig(kernel_threads=2).kernel_threads == 2
        with pytest.raises(ValueError, match="kernel_threads"):
            SolverConfig(kernel_threads=0)
        # the sweep layout is a rule of repro.core.pmvn, not a setting
        with pytest.raises(TypeError, match="batch_fusion"):
            SolverConfig(batch_fusion="fused")

    def test_batch_restores_thread_setting(self, spd36, rng):
        prev = set_kernel_threads(None)
        try:
            mvn_probability_batch(_boxes(spd36.shape[0], rng)[:2], spd36,
                                  n_samples=96, tile_size=12, rng=0,
                                  kernel_threads=2)
            assert resolve_kernel_threads() is None
        finally:
            set_kernel_threads(prev)


class TestFusionParity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("prefix", [False, True])
    @pytest.mark.parametrize("n_boxes", [1, 2, 5])
    @pytest.mark.parametrize("n_samples", [96, 90])
    @pytest.mark.parametrize("seed", ["int", "generator"])
    @pytest.mark.parametrize("method", ["dense", "tlr"])
    @pytest.mark.parametrize("kinds", ["mixed", "upper-inf"])
    def test_fused_bitwise_matches_interleaved(self, spd36, rng, monkeypatch, kinds, method, seed,
                                               n_samples, n_boxes, prefix, workers):
        """A batch equals its loop of single-box (per-box tile) sweeps, bit
        for bit, and fuses exactly where the layout rule says.  Row blocks
        whose upper limits are all +inf skip the B-side propagation exactly
        where every column's rows are +inf, boxes of one fused tile
        differing included."""
        import repro.core.pmvn as pmvn_mod

        n = spd36.shape[0]  # three row blocks of 12
        box_kinds = UPPER_INF if kinds == "upper-inf" else ("one-sided", "two-sided", "mixed")
        boxes = (_boxes(n, rng, box_kinds) * 2)[:n_boxes]
        factor = factorize(spd36, method=method, tile_size=12, accuracy=1e-5)
        calls = []
        original = pmvn_mod._gemm_limits_update

        def spy(a_block, b_block, y_block, factor, j, r, workspace, skip_a, skip_b, clock):
            calls.append((skip_b, bool(np.all(np.isposinf(b_block)))))
            original(a_block, b_block, y_block, factor, j, r, workspace, skip_a, skip_b, clock)

        monkeypatch.setattr(pmvn_mod, "_gemm_limits_update", spy)
        # a Generator is consumed box by box, so the loop gets a fresh twin
        batch_rng, loop_rng = (
            (7, 7) if seed == "int" else (np.random.default_rng(7), np.random.default_rng(7))
        )
        with Runtime(n_workers=workers) as rt:
            def sweep(box_list, source):
                options = PMVNOptions(n_samples=n_samples, rng=source, return_prefix=prefix)
                return pmvn_integrate_batch(box_list, factor, options, runtime=rt)

            batch = sweep(boxes, batch_rng)
            singles = [sweep([box], loop_rng)[0] for box in boxes]
        fuses = n_boxes > 1 and not prefix and n_samples % 8 == 0
        for got, want in zip(batch, singles):
            assert got.probability == want.probability
            assert got.error == want.error
            if prefix:
                np.testing.assert_array_equal(got.details["prefix_probabilities"],
                                              want.details["prefix_probabilities"])
                np.testing.assert_array_equal(got.details["prefix_errors"],
                                              want.details["prefix_errors"])
            assert got.details["fusion"] == ("fused" if fuses else "interleaved")
            assert want.details["fusion"] == "interleaved"
        assert all(skip == all_inf for skip, all_inf in calls)
        if kinds == "upper-inf":
            assert {skip for skip, _ in calls} == {True, False}

    def test_auto_fuses_only_lane_aligned(self, spd36, rng):
        boxes = _boxes(spd36.shape[0], rng)[:2]
        aligned = mvn_probability_batch(boxes, spd36, n_samples=96,
                                        tile_size=12, rng=1)
        assert all(r.details["fusion"] == "fused" for r in aligned)
        ragged = mvn_probability_batch(boxes, spd36, n_samples=90,
                                       tile_size=12, rng=1)
        assert all(r.details["fusion"] == "interleaved" for r in ragged)
        single = mvn_probability_batch(boxes[:1], spd36, n_samples=96,
                                       tile_size=12, rng=1)
        assert single[0].details["fusion"] == "interleaved"

    def test_fused_uses_wide_tiles(self, spd36, rng):
        """The fused sweep's chain block spans boxes (that is the point)."""
        boxes = _boxes(spd36.shape[0], rng)
        fused = mvn_probability_batch(boxes, spd36, n_samples=96, tile_size=12,
                                      rng=2)
        assert fused[0].details["fusion"] == "fused"
        assert fused[0].details["fused_cols"] == 96 * len(boxes)
        assert fused[0].details["chain_block"] > 96


class TestCalibrationPerBackend:
    def test_calibrate_records_backend(self):
        from repro.perf.calibration import calibrate

        result = calibrate(tile_size=32, rank=4, n_chains=64, backend="reference")
        assert result.backend == "reference"
        assert result.qmc_rows_per_second > 0

    def test_calibrate_backends_collapses_fallbacks(self):
        from repro.perf.calibration import calibrate_backends

        rates = calibrate_backends(["numpy", "numba-parallel"],
                                   tile_size=32, rank=4, n_chains=64)
        # on a numba-less install both names resolve to numpy: one entry
        for name, result in rates.items():
            assert name in available_backends()
            assert result.backend == name


class TestServeFusionStamp:
    def test_served_details_record_fusion(self, spd36):
        from repro.serve import QueryBroker, ServeConfig

        n = spd36.shape[0]
        config = ServeConfig(n_shards=1, worker_mode="thread", max_batch=4,
                             batch_window=0.05)
        solver_config = SolverConfig(method="dense", n_samples=96, tile_size=12)
        with QueryBroker(config, solver_config) as broker:
            futures = [
                broker.submit(np.full(n, -np.inf), np.full(n, 0.5 + 0.1 * i),
                              spd36, rng=0)
                for i in range(4)
            ]
            results = [f.result() for f in futures]
        modes = {r.details["serve"]["fusion"] for r in results}
        assert modes <= {"fused", "interleaved"}
        # concurrently submitted same-Sigma queries micro-batch, and 96 is
        # lane-aligned, so at least one batch must have fused
        assert "fused" in modes
