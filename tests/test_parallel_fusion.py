"""Tests for the parallel-sweep round: backend names and cross-box vs
per-box sweep layout bit-parity.

Three contracts:

* **backend names** — ``"cupy"`` is not a backend at all (an explicit
  request raises the unknown-name error, which lists what this install can
  run), and an unknown ``$REPRO_KERNEL_BACKEND`` names the variable;
* **layout parity** — a batch swept in cross-box (``"fused"``) tiles is
  bitwise identical to a loop of single-box sweeps in per-box tiles, across
  seeds, methods, limit kinds (``+inf`` upper rows included, which skip the
  B-side propagation), prefix output and worker counts, and the layout rule
  only fuses lane-aligned, prefix-free batches of several boxes;
* **tile rule** — one worker sweeps a micro-batch, or a detection's
  prefix sweep, as one wide tile with the same bits as any other cut, an
  all-infinite side is never materialized, and no pooled buffer is read
  before it is written.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.batch import mvn_probability_batch
from repro.core import factorize
from repro.core.kernel_backend import (
    BACKEND_ENV_VAR,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.core.pmvn import PMVNOptions, pmvn_integrate_batch
from repro.runtime import Runtime
from repro.solver import MVNSolver, SolverConfig


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


class TestBackendNames:
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

    def test_layout_is_not_a_setting(self):
        # the sweep layout is a rule of repro.core.pmvn, not a setting
        with pytest.raises(TypeError, match="batch_fusion"):
            SolverConfig(batch_fusion="fused")

    def test_fused_uses_wide_tiles(self, spd36, rng):
        """The fused sweep's chain block spans boxes (that is the point)."""
        boxes = _boxes(spd36.shape[0], rng)
        fused = mvn_probability_batch(boxes, spd36, n_samples=96, tile_size=12,
                                      rng=2)
        assert fused[0].details["fusion"] == "fused"
        assert fused[0].details["fused_cols"] == 96 * len(boxes)
        assert fused[0].details["chain_block"] > 96


class TestTileRule:
    """One worker sweeps a micro-batch or a prefix sweep as one wide tile;
    wider tiles materialize nothing they do not read."""

    @pytest.mark.parametrize("method", ["dense", "tlr"])
    def test_one_worker_sweeps_a_batch_as_one_tile(self, spd36, rng, method):
        """12 boxes x 96 chains is one 1152-column tile on one worker, and
        the answers equal a loop of single-box sweeps and the same batch on
        2 and 3 workers (one tile each), bit for bit."""
        boxes = _boxes(spd36.shape[0], rng, ("one-sided", "two-sided", "mixed") * 4)
        factor = factorize(spd36, method=method, tile_size=12, accuracy=1e-5)

        def sweep(box_list, workers):
            with Runtime(n_workers=workers) as rt:
                return pmvn_integrate_batch(box_list, factor, PMVNOptions(n_samples=96, rng=7),
                                            runtime=rt)

        batch = sweep(boxes, 1)
        assert [r.details["chain_block"] for r in batch] == [1152] * len(boxes)
        singles = [sweep([box], 1)[0] for box in boxes]
        for workers in (2, 3):
            spread = sweep(boxes, workers)
            assert spread[0].details["chain_block"] == 1152 // workers
            for got, want in zip(spread, batch):
                assert (got.probability, got.error) == (want.probability, want.error)
        for got, want in zip(batch, singles):
            assert (got.probability, got.error) == (want.probability, want.error)

    def test_infinite_sides_are_never_materialized(self, spd36):
        """An all-infinite side costs no pooled buffer: a one-sided batch
        holds no lower-limit buffer, a detection no upper-limit one."""
        n = spd36.shape[0]
        boxes = [(np.full(n, -np.inf), np.full(n, 0.5 + 0.1 * i)) for i in range(4)]
        config = SolverConfig(method="dense", n_samples=96, tile_size=12)
        with MVNSolver(config) as solver:
            solver.model(spd36).probability_batch(boxes, rng=1)
            roles = {key[0] for key in solver._sweep_workspace._buffers}
        assert "a" not in roles and "b" in roles
        with MVNSolver(config) as solver:
            solver.model(spd36, mean=np.linspace(-0.5, 0.5, n)).confidence_region(0.0, rng=1)
            roles = {key[0] for key in solver._sweep_workspace._buffers}
        assert "b" not in roles and "a" in roles

    def test_no_buffer_is_read_before_it_is_written(self, spd36, rng):
        """Poisoning every pooled buffer with NaN between two identical
        batches changes no answer: Y and the limit tiles are written before
        anything reads them."""
        n = spd36.shape[0]
        boxes = _boxes(n, rng, ("one-sided", "two-sided", "mixed") + UPPER_INF)
        config = SolverConfig(method="tlr", n_samples=96, tile_size=12, accuracy=1e-5)
        with MVNSolver(config) as solver:
            model = solver.model(spd36)
            first = model.probability_batch(boxes, rng=3)
            pool = solver._sweep_workspace
            scratch = [vars(ws)[name] for ws in pool._kernel_pool
                       for name in ("shift", "lohi", "phi", "width", "diag")]
            for buf in [*pool._buffers.values(), *pool._gemm_pool, *scratch]:
                buf.fill(np.nan)
            second = model.probability_batch(boxes, rng=3)
        assert [(r.probability, r.error) for r in second] == [(r.probability, r.error) for r in first]

    def test_prefix_sweeps_keep_their_tiles(self, spd36, monkeypatch):
        """A detection on one worker sweeps one 1000-chain tile (two
        512-chain accumulation segments) and gets the same prefix arrays as
        an explicit ``chain_block=512`` sweep."""
        import repro.core.crd as crd_mod

        n = spd36.shape[0]
        original = crd_mod.pmvn_integrate
        seen = []

        def spy(a, b, factor, options, runtime=None):
            result = original(a, b, factor, options, runtime=runtime)
            pinned = original(a, b, factor, replace(options, chain_block=512), runtime=runtime)
            seen.append((result, pinned))
            return result

        monkeypatch.setattr(crd_mod, "pmvn_integrate", spy)
        config = SolverConfig(method="dense", n_samples=1000, tile_size=12)
        with MVNSolver(config) as solver:
            solver.model(spd36, mean=np.linspace(-0.5, 0.5, n)).confidence_region(0.0, rng=1)
        [(result, pinned)] = seen
        assert (result.details["chain_block"], pinned.details["chain_block"]) == (1000, 512)
        for key in ("prefix_probabilities", "prefix_errors"):
            np.testing.assert_array_equal(result.details[key], pinned.details[key])

    @pytest.mark.parametrize("method", ["dense", "tlr"])
    def test_prefix_sweep_is_one_tile_per_worker(self, spd36, method):
        """A prefix sweep at N = 1000 is one 1000-chain tile on one worker;
        2 and 3 workers (two 512-chain tiles) and an explicit
        ``chain_block=512`` return the same prefix arrays, bit for bit."""
        n = spd36.shape[0]
        factor = factorize(spd36, method=method, tile_size=12, accuracy=1e-5)
        box = (np.linspace(-1.5, 0.5, n), np.full(n, np.inf))

        def sweep(workers, **knobs):
            options = PMVNOptions(n_samples=1000, rng=5, return_prefix=True, **knobs)
            with Runtime(n_workers=workers) as rt:
                return pmvn_integrate_batch([box], factor, options, runtime=rt)[0]

        one = sweep(1)
        assert one.details["chain_block"] == 1000
        others = [sweep(2), sweep(3), sweep(1, chain_block=512)]
        assert [other.details["chain_block"] for other in others] == [512] * 3
        for other in others:
            assert (other.probability, other.error) == (one.probability, one.error)
            for key in ("prefix_probabilities", "prefix_errors"):
                np.testing.assert_array_equal(other.details[key], one.details[key])


class TestCalibrationPerBackend:
    def test_calibrate_records_backend(self):
        from repro.perf.calibration import calibrate

        result = calibrate(tile_size=32, rank=4, n_chains=64, backend="reference")
        assert result.backend == "reference"
        assert result.qmc_rows_per_second > 0


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
