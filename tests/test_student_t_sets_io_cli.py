"""Tests for the Student-t extension, excursion-set variants, IO, and the CLI."""

import numpy as np
import pytest
from scipy.stats import multivariate_t, norm, t as student_t

from repro.core import confidence_region
from repro.core.kernel_backend import available_backends
from repro.excursion import excursion_analysis, negative_confidence_region
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.mvn import chi_quantile, mvt_sov_vectorized, mvn_sov_vectorized
from repro.tlr import TLRMatrix
from repro.utils.io import (
    load_confidence_region,
    load_tlr_matrix,
    save_confidence_region,
    save_tlr_matrix,
)
from repro import cli


@pytest.fixture
def field(rng):
    geom = Geometry.regular_grid(5, 4)
    sigma = build_covariance(ExponentialKernel(1.0, 0.3), geom.locations, nugget=1e-8)
    mean = 0.8 * np.exp(-((geom.locations[:, 0] - 0.3) ** 2 + (geom.locations[:, 1] - 0.5) ** 2) / 0.1)
    return geom, sigma, mean


class TestStudentT:
    def test_chi_quantile_median(self):
        """Median of the chi^2_k distribution maps back through the quantile."""
        from scipy.stats import chi2

        for dof in (1.0, 4.0, 10.0):
            u = np.array([0.25, 0.5, 0.9])
            expected = np.sqrt(chi2(dof).ppf(u))
            np.testing.assert_allclose(chi_quantile(u, dof), expected, rtol=1e-10)

    def test_chi_quantile_validation(self):
        with pytest.raises(ValueError):
            chi_quantile(np.array([0.5]), -1.0)
        with pytest.raises(ValueError):
            chi_quantile(np.array([0.0]), 3.0)

    def test_univariate_matches_scipy_t(self):
        dof = 5.0
        b = 1.3
        ref = student_t(dof).cdf(b)
        res = mvt_sov_vectorized([-np.inf], [b], np.array([[1.0]]), dof, n_samples=20_000, rng=0)
        assert res.probability == pytest.approx(ref, abs=5e-3)

    def test_bivariate_matches_scipy_multivariate_t(self):
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        dof = 7.0
        b = np.array([0.8, 1.5])
        ref = multivariate_t(shape=sigma, df=dof).cdf(b)
        res = mvt_sov_vectorized(np.full(2, -np.inf), b, sigma, dof, n_samples=30_000, rng=1)
        assert res.probability == pytest.approx(ref, abs=1e-2)

    def test_converges_to_mvn_for_large_dof(self, rng):
        a_mat = rng.standard_normal((5, 5))
        sigma = a_mat @ a_mat.T + 5 * np.eye(5)
        b = rng.standard_normal(5)
        mvn = mvn_sov_vectorized(np.full(5, -np.inf), b, sigma, n_samples=8000, rng=2).probability
        mvt = mvt_sov_vectorized(np.full(5, -np.inf), b, sigma, 1e6, n_samples=8000, rng=2).probability
        assert mvt == pytest.approx(mvn, abs=5e-3)

    def test_heavier_tails_than_gaussian(self):
        """For a symmetric box the t distribution puts less mass inside."""
        sigma = np.eye(3)
        a, b = np.full(3, -1.0), np.full(3, 1.0)
        gauss = (norm.cdf(1.0) - norm.cdf(-1.0)) ** 3
        res = mvt_sov_vectorized(a, b, sigma, dof=3.0, n_samples=20_000, rng=3)
        assert res.probability < gauss

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            mvt_sov_vectorized([0.0], [1.0], np.eye(1), dof=0.0)

    def test_result_metadata(self):
        res = mvt_sov_vectorized([-1.0], [1.0], np.eye(1), dof=4.0, n_samples=500, rng=0)
        assert res.method == "mvt-sov"
        assert res.details["dof"] == 4.0


class TestExcursionSetVariants:
    def test_negative_region_mirrors_positive_of_negated_field(self, field):
        geom, sigma, mean = field
        kwargs = dict(n_samples=2000, tile_size=10, rng=5)
        neg = negative_confidence_region(sigma, mean, 0.5, **kwargs)
        pos_of_neg = confidence_region(sigma, -mean, -0.5, **kwargs)
        np.testing.assert_allclose(neg.confidence_function, pos_of_neg.confidence_function)
        assert neg.threshold == 0.5
        assert neg.details["set_type"] == "negative"

    def test_analysis_classification_consistent(self, field):
        geom, sigma, mean = field
        analysis = excursion_analysis(sigma, mean, 0.5, alpha=0.3, n_samples=2000, tile_size=10, rng=5)
        labels = analysis.classification()
        assert labels.shape == (geom.n,)
        summary = analysis.summary()
        assert summary["above"] + summary["below"] + summary["uncertain"] == geom.n
        assert np.count_nonzero(labels == 1) == summary["above"]
        assert np.count_nonzero(labels == -1) == summary["below"]

    def test_positive_and_negative_sets_disjoint(self, field):
        geom, sigma, mean = field
        analysis = excursion_analysis(sigma, mean, 0.5, alpha=0.2, n_samples=2000, tile_size=10, rng=6)
        assert not np.any(analysis.positive_set & analysis.negative_set)

    def test_uncertain_shrinks_with_looser_alpha(self, field):
        geom, sigma, mean = field
        strict = excursion_analysis(sigma, mean, 0.5, alpha=0.05, n_samples=2000, tile_size=10, rng=7)
        loose = excursion_analysis(sigma, mean, 0.5, alpha=0.5, n_samples=2000, tile_size=10, rng=7)
        assert loose.summary()["uncertain"] <= strict.summary()["uncertain"]


class TestIO:
    def test_confidence_region_roundtrip(self, field, tmp_path):
        geom, sigma, mean = field
        result = confidence_region(sigma, mean, 0.5, n_samples=1000, tile_size=10, rng=0)
        path = save_confidence_region(result, tmp_path / "crd.npz")
        loaded = load_confidence_region(path)
        np.testing.assert_allclose(loaded.confidence_function, result.confidence_function)
        np.testing.assert_allclose(loaded.marginal_probabilities, result.marginal_probabilities)
        np.testing.assert_array_equal(loaded.order, result.order)
        assert loaded.threshold == result.threshold
        assert loaded.method == result.method
        assert loaded.region_size(0.3) == result.region_size(0.3)

    def test_tlr_matrix_roundtrip(self, medium_spd, tmp_path):
        tlr = TLRMatrix.from_dense(medium_spd, tile_size=10, accuracy=1e-5, max_rank=8)
        path = save_tlr_matrix(tlr, tmp_path / "matrix.npz")
        loaded = load_tlr_matrix(path)
        assert loaded.n == tlr.n
        assert loaded.tile_size == tlr.tile_size
        assert loaded.max_rank == tlr.max_rank
        np.testing.assert_allclose(loaded.to_dense(), tlr.to_dense(), atol=1e-12)

    def test_tlr_matrix_roundtrip_no_max_rank(self, small_spd, tmp_path):
        tlr = TLRMatrix.from_dense(small_spd, tile_size=4, accuracy=1e-3)
        loaded = load_tlr_matrix(save_tlr_matrix(tlr, tmp_path / "m.npz"))
        assert loaded.max_rank is None


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_mvn_synthetic(self, capsys):
        code = cli.main(["mvn", "--grid", "8", "--method", "sov", "--samples", "500", "--upper", "1.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "probability" in out

    def test_mvn_from_file(self, tmp_path, capsys, small_spd):
        path = tmp_path / "sigma.npy"
        np.save(path, small_spd)
        code = cli.main([
            "mvn", "--covariance", str(path), "--method", "dense", "--samples", "400",
            "--tile-size", "4", "--upper", "2.0",
        ])
        assert code == 0
        assert "dimension        : 8" in capsys.readouterr().out

    def test_crd_with_save_and_map(self, tmp_path, capsys):
        out_path = tmp_path / "result.npz"
        code = cli.main([
            "crd", "--grid", "10", "--samples", "400", "--method", "tlr",
            "--save", str(out_path), "--map", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert "confidence region size" in out
        loaded = load_confidence_region(out_path)
        assert loaded.n == 100

    @pytest.mark.parametrize(
        "command",
        [["mvn"], ["batch", "--boxes", "boxes.npz"], ["plan"], ["crd"],
         ["pipeline", "run"], ["update"], ["serve"]],
        ids=lambda command: command[0],
    )
    def test_backend_choices_are_the_registered_backends(self, command):
        """Every ``--backend`` offers exactly the registered kernel backends,
        and no subcommand takes a kernel thread count."""
        parser = cli.build_parser()
        for name in available_backends():
            assert parser.parse_args(command + ["--backend", name]).backend == name
        for flag in (["--backend", "numba"], ["--backend", "auto"], ["--kernel-threads", "2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(command + flag)

    def test_calibrate(self, capsys):
        code = cli.main(["calibrate", "--tile-size", "48", "--rank", "4"])
        assert code == 0
        assert "CalibrationResult" in capsys.readouterr().out


_SWEEP = ["gemm_propagation", "integration", "kernel_sweep", "qmc_generation", "workspace_setup"]
_DENSE = ["cholesky", "factorization"]
#: TLR compression runs inside the TLR Cholesky's solve tasks: no region of its own
_TLR = ["factorization", "tlr_cholesky"]
_DETECTION = ["factorize", "marginals", "pmvn_sweep", "standardize"]


class TestCLIVerbose:
    """``--verbose`` prints one phase table; its region names and call
    counts are pinned per command."""

    @staticmethod
    def _regions(out: str) -> dict[str, int]:
        table = out.split("region                          total(s)   calls    mean(s)\n", 1)
        assert len(table) == 2, f"no phase table in:\n{out}"
        regions = {}
        for line in table[1].splitlines():
            fields = line.split()
            if len(fields) != 4:
                break
            regions[fields[0]] = int(fields[2])
        return regions

    @pytest.mark.parametrize(
        "argv, regions, calls",
        [
            (["mvn", "--grid", "6", "--method", "dense"], _DENSE + _SWEEP, 1),
            (["mvn", "--grid", "6", "--method", "tlr"], _TLR + _SWEEP, 1),
            (["crd", "--grid", "8", "--method", "dense"], _DENSE + _SWEEP + _DETECTION, 1),
            (["crd", "--grid", "8", "--method", "tlr"], _TLR + _SWEEP + _DETECTION, 1),
            (["pipeline", "run", "--grid", "8", "--thresholds", "2"],
             _DENSE + _SWEEP + _DETECTION, 4),
        ],
        ids=["mvn-dense", "mvn-tlr", "crd-dense", "crd-tlr", "pipeline-run"],
    )
    def test_phase_table(self, capsys, argv, regions, calls):
        assert cli.main(argv + ["--samples", "200", "--verbose"]) == 0
        assert self._regions(capsys.readouterr().out) == dict.fromkeys(regions, calls)

    def test_batch_phase_table(self, tmp_path, capsys):
        path = tmp_path / "boxes.npz"
        upper = np.random.default_rng(0).uniform(0.5, 2.0, (3, 36))
        np.savez(path, lower=np.full((3, 36), -np.inf), upper=upper)
        argv = ["batch", "--boxes", str(path), "--grid", "6", "--method", "dense",
                "--samples", "200", "--verbose"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "kernel backend   :" in out
        assert self._regions(out) == dict.fromkeys(_DENSE + _SWEEP, 1)
