"""Parity and pooling tests for the QMC kernel backends.

The contract of the hot-path rewrite: the fused ``"numpy"`` backend is
**bit-identical** to the ``"reference"`` (pre-optimization) row loop across
dense and TLR sweeps, one-/two-sided and mixed limits; pooled workspaces
carry no state between calls or between boxes of a batch; and the backend
registry resolves names and the environment variable as documented.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import mvn_probability_batch
from repro.core import PMVNOptions, factorize, mvn_probability, pmvn_integrate, qmc_kernel_tile
from repro.core.kernel_backend import (
    BACKEND_ENV_VAR,
    KernelWorkspace,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.solver import MVNSolver, SolverConfig
from repro.stats.normal import norm_cdf, norm_ppf
from repro.stats.qmc import qmc_samples
from repro.utils.timers import collect_timings


@pytest.fixture
def spd36(rng):
    from repro.kernels import ExponentialKernel, Geometry, build_covariance

    geom = Geometry.regular_grid(6, 6)
    return build_covariance(ExponentialKernel(1.0, 0.25), geom.locations, nugget=1e-8)


class TestBitParity:
    @pytest.mark.parametrize("kind", ["one-sided", "two-sided", "mixed"])
    @pytest.mark.parametrize("method", ["dense", "tlr"])
    def test_numpy_backend_bit_identical(self, spd36, rng, method, kind):
        n = spd36.shape[0]
        a, b = {
            "one-sided": (np.full(n, -np.inf), rng.uniform(0.5, 2.0, n)),
            "two-sided": (-rng.uniform(1.0, 3.0, n), rng.uniform(0.5, 2.0, n)),
            "mixed": (
                np.where(np.arange(n) % 3 == 0, -np.inf, -1.5),
                np.where(np.arange(n) % 5 == 0, np.inf, 1.2),
            ),
        }[kind]
        factor = factorize(spd36, method=method, tile_size=7, accuracy=1e-5)
        ref = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=600, rng=3, backend="reference"))
        fused = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=600, rng=3, backend="numpy"))
        assert fused.probability == ref.probability
        assert fused.error == ref.error
        assert fused.details["backend"] == "numpy"
        assert ref.details["backend"] == "reference"

    def test_heterogeneous_columns_bit_identical(self, small_spd):
        """Rows mixing -inf and finite limits *across chains* stay exact.

        The one-sided fast paths may only fire when every chain of a row is
        infinite; a column-0-only classification would silently treat the
        whole row as unbounded."""
        n = small_spd.shape[0]
        c = 32
        l_tile = np.linalg.cholesky(small_spd)
        r_tile = qmc_samples(n, c, rng=11)
        a_tile = np.full((n, c), -1.2)
        a_tile[1, 0] = -np.inf          # chain 0 unbounded, chains 1.. finite
        b_tile = np.full((n, c), 1.3)
        b_tile[2, -1] = np.inf
        out = {}
        for backend in ("reference", "numpy"):
            p_seg = np.ones(c)
            y_tile = np.zeros((n, c))
            qmc_kernel_tile(l_tile, r_tile, a_tile.copy(), b_tile.copy(),
                            p_seg, y_tile, backend=backend)
            out[backend] = (p_seg, y_tile)
        np.testing.assert_array_equal(out["numpy"][0], out["reference"][0])
        np.testing.assert_array_equal(out["numpy"][1], out["reference"][1])

    def test_prefix_sumsq_alone_accumulates(self, small_spd):
        """prefix_sumsq must fill even when prefix_sum is not requested."""
        n = small_spd.shape[0]
        c = 16
        l_tile = np.linalg.cholesky(small_spd)
        r_tile = qmc_samples(n, c, rng=1)
        for backend in ("reference", "numpy"):
            sumsq = np.zeros(n)
            qmc_kernel_tile(l_tile, r_tile, np.full((n, c), -2.0), np.full((n, c), 2.0),
                            np.ones(c), np.zeros((n, c)),
                            prefix_sumsq=sumsq, backend=backend)
            assert np.all(sumsq > 0.0), backend

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_segment_sums_equal_per_row_reductions(self, small_spd, backend):
        """The sums taken after the row loop equal ``p.sum()`` and
        ``np.dot(p, p)`` over each segment of the running product after
        each row, bit for bit."""
        n, c = small_spd.shape[0], 600
        l_tile = np.linalg.cholesky(small_spd)
        r_tile = qmc_samples(n, c, rng=2)
        a_tile, b_tile = np.full((n, c), -1.0), np.full((n, c), 1.5)
        segments = [(0, 512), (512, c)]
        sums, sumsqs = np.zeros((2, n)), np.zeros((2, n))
        qmc_kernel_tile(l_tile, r_tile, a_tile, b_tile, np.ones(c), np.empty((n, c)),
                        prefix_sum=sums, prefix_sumsq=sumsqs, segments=segments, backend=backend)
        for i in range(n):
            # the running product after row i: the kernel over rows 0..i
            p = np.ones(c)
            qmc_kernel_tile(l_tile[:i + 1, :i + 1], r_tile[:i + 1], a_tile[:i + 1], b_tile[:i + 1],
                            p, np.empty((i + 1, c)), backend=backend)
            for s, (c0, c1) in enumerate(segments):
                assert sums[s, i] == float(p[c0:c1].sum())
                assert sumsqs[s, i] == float(np.dot(p[c0:c1], p[c0:c1]))

    def test_prefix_accumulators_bit_identical(self, spd36):
        from repro.core import PMVNOptions, pmvn_integrate

        n = spd36.shape[0]
        factor = factorize(spd36, method="dense", tile_size=7)
        out = {}
        for backend in ("reference", "numpy"):
            options = PMVNOptions(n_samples=400, rng=1, return_prefix=True, backend=backend)
            out[backend] = pmvn_integrate(np.full(n, -0.8), np.full(n, np.inf), factor, options)
        np.testing.assert_array_equal(
            out["numpy"].details["prefix_probabilities"],
            out["reference"].details["prefix_probabilities"],
        )
        np.testing.assert_array_equal(
            out["numpy"].details["prefix_errors"],
            out["reference"].details["prefix_errors"],
        )


class TestWorkspacePooling:
    def test_batch_boxes_leak_no_state(self, spd36, rng):
        """Permutation invariance: pooled buffers carry nothing across boxes."""
        n = spd36.shape[0]
        boxes = [
            (np.full(n, -np.inf), rng.uniform(0.3, 2.0, n)),
            (-rng.uniform(1.0, 2.0, n), rng.uniform(0.3, 2.0, n)),
            (np.full(n, -np.inf), rng.uniform(0.3, 2.0, n)),
        ]
        order = [2, 0, 1]
        straight = mvn_probability_batch(boxes, spd36, method="dense", n_samples=500, rng=9, tile_size=7)
        permuted = mvn_probability_batch([boxes[i] for i in order], spd36,
                                         method="dense", n_samples=500, rng=9, tile_size=7)
        for pos, original in enumerate(order):
            assert permuted[pos].probability == straight[original].probability
            assert permuted[pos].error == straight[original].error

    def test_model_workspace_reused_across_calls(self, spd36, rng):
        """Consecutive queries through one Model (shared pooled workspace)
        reproduce fresh-solver results bit for bit."""
        n = spd36.shape[0]
        a1, b1 = np.full(n, -np.inf), rng.uniform(0.5, 2.0, n)
        a2, b2 = -rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 2.0, n)
        with MVNSolver(SolverConfig(method="dense", n_samples=500, tile_size=7)) as solver:
            model = solver.model(spd36)
            warm1 = model.probability(a1, b1, rng=4)
            warm2 = model.probability(a2, b2, rng=4)
            warm1_again = model.probability(a1, b1, rng=4)
        fresh1 = mvn_probability(a1, b1, spd36, n_samples=500, tile_size=7, rng=4)
        fresh2 = mvn_probability(a2, b2, spd36, n_samples=500, tile_size=7, rng=4)
        assert warm1.probability == fresh1.probability
        assert warm2.probability == fresh2.probability
        assert warm1_again.probability == fresh1.probability

    def test_wave_buffer_checkout_is_exclusive(self, spd36, rng):
        """Concurrent sweeps cannot share the keyed wave buffers: a second
        claimant is refused and the sweep falls back to a transient pool,
        producing identical results."""
        from repro.core.pmvn import SweepWorkspace

        ws = SweepWorkspace()
        assert ws.checkout_wave_buffers()
        assert not ws.checkout_wave_buffers()

        # a sweep handed a busy workspace must still be bit-correct
        n = spd36.shape[0]
        a, b = np.full(n, -np.inf), rng.uniform(0.5, 2.0, n)
        factor = factorize(spd36, method="dense", tile_size=7)
        busy = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=400, rng=8, workspace=ws))
        fresh = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=400, rng=8))
        assert busy.probability == fresh.probability

        ws.release_wave_buffers()
        assert ws.checkout_wave_buffers()
        ws.release_wave_buffers()

    def test_confidence_region_uses_config_backend(self, spd36, monkeypatch):
        """SolverConfig.backend reaches the CRD sweeps (not just probability)."""
        import repro.core.pmvn as pmvn_mod

        seen: list = []
        original = pmvn_mod.get_backend

        def spy(name=None):
            seen.append(name)
            return original(name)

        monkeypatch.setattr(pmvn_mod, "get_backend", spy)
        with MVNSolver(SolverConfig(method="dense", n_samples=200, tile_size=12,
                                    backend="reference")) as solver:
            solver.model(spd36, mean=0.3).confidence_region(0.1, rng=0)
        assert "reference" in seen

    def test_bad_diagonal_rejected_before_mutation(self):
        """The vectorized pre-check fires before any chain state is touched."""
        bad = np.eye(4)
        bad[2, 2] = -1.0
        c = 8
        p_seg = np.ones(c)
        y_tile = np.zeros((4, c))
        a_tile = np.full((4, c), -1.0)
        b_tile = np.full((4, c), 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            qmc_kernel_tile(bad, np.full((4, c), 0.5), a_tile, b_tile, p_seg, y_tile)
        # the reference kernel used to multiply p_seg for rows 0..1 before
        # noticing row 2; now the caller never observes half-updated chains
        np.testing.assert_array_equal(p_seg, np.ones(c))
        np.testing.assert_array_equal(y_tile, np.zeros((4, c)))

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_explicit_workspace_and_backend_kwargs(self, small_spd, backend):
        n = small_spd.shape[0]
        c = 64
        l_tile = np.linalg.cholesky(small_spd)
        r_tile = qmc_samples(n, c, rng=2)
        args = lambda: (  # noqa: E731 - tiny test factory
            np.full((n, c), -np.inf), np.full((n, c), 0.7), np.ones(c), np.zeros((n, c))
        )
        ws = KernelWorkspace()
        a1, b1, p1, y1 = args()
        qmc_kernel_tile(l_tile, r_tile, a1, b1, p1, y1, workspace=ws, backend=backend)
        a2, b2, p2, y2 = args()
        qmc_kernel_tile(l_tile, r_tile, a2, b2, p2, y2, workspace=ws, backend=backend)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(y1, y2)


class TestRegistry:
    def test_available_backends_baseline(self):
        assert available_backends() == ["numpy", "reference"]

    @pytest.mark.parametrize("name", ["numba", "numba-parallel", "auto"])
    def test_only_the_two_backends_resolve(self, name):
        """No fallback chain: a name outside the registry is unknown."""
        with pytest.raises(ValueError, match=f"unknown kernel backend '{name}'"):
            get_backend(name)
        with pytest.raises(ValueError, match=f"unknown kernel backend '{name}'"):
            SolverConfig(backend=name)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name("cuda")
        with pytest.raises(ValueError):
            SolverConfig(backend="cuda")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert get_backend(None).name == "reference"
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert get_backend(None).name == "numpy"

    def test_explicit_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert get_backend("numpy").name == "numpy"

    def test_config_canonicalizes_backend(self):
        assert SolverConfig(backend="NumPy").backend == "numpy"
        assert SolverConfig().backend is None


class TestPhaseAttribution:
    def test_details_and_timings_expose_phases(self, spd36):
        n = spd36.shape[0]
        with collect_timings() as reg:
            res = mvn_probability(np.full(n, -np.inf), np.full(n, 0.5), spd36,
                                  n_samples=400, tile_size=7, rng=0)
        assert res.details["backend"] == "numpy"
        assert res.details["kernel_seconds"] > 0.0
        assert res.details["gemm_seconds"] >= 0.0
        assert reg.count("kernel_sweep") == 1
        assert reg.count("gemm_propagation") == 1

    def test_solver_probability_accepts_timings(self, spd36):
        n = spd36.shape[0]
        with collect_timings() as reg, \
                MVNSolver(SolverConfig(method="dense", n_samples=300, tile_size=7)) as solver:
            solver.model(spd36).probability(np.full(n, -np.inf), np.full(n, 0.5), rng=0)
        assert reg.count("factorization") == 1
        assert reg.count("kernel_sweep") == 1


class TestStatsOutVariants:
    def test_norm_cdf_out_bit_identical(self, rng):
        x = rng.standard_normal(257) * 3
        x[0], x[1] = -np.inf, np.inf
        out = np.empty_like(x)
        np.testing.assert_array_equal(norm_cdf(x, out=out), norm_cdf(x))

    def test_norm_ppf_out_bit_identical(self, rng):
        p = rng.random(257)
        p[0], p[1], p[2] = 0.0, 1.0, 1e-300
        out = np.empty_like(p)
        np.testing.assert_array_equal(norm_ppf(p, out=out), norm_ppf(p))

    def test_norm_ppf_out_aliases_input(self, rng):
        p = rng.random(64)
        expected = norm_ppf(p)
        result = norm_ppf(p, out=p)
        assert result is p
        np.testing.assert_array_equal(p, expected)

    def test_workspace_binds_the_diagonal(self, small_spd):
        l_tile = np.linalg.cholesky(small_spd)
        ws = KernelWorkspace()
        ws.ensure(l_tile.shape[0], 4)
        diag = ws.bind_tile(l_tile)
        np.testing.assert_array_equal(diag, np.diagonal(l_tile))


class TestInPlaceGemm:
    def test_apply_offdiag_into_matches(self, spd36, rng):
        y = rng.standard_normal((7, 9))
        for method, kwargs in (("dense", {}), ("tlr", {"accuracy": 1e-6})):
            factor = factorize(spd36, method=method, tile_size=7, **kwargs)
            expected = factor.apply_offdiag(2, 0, y)
            out = np.full_like(expected, np.nan)
            result = factor.apply_offdiag_into(2, 0, y, out=out)
            assert result is out
            np.testing.assert_array_equal(out, expected)
