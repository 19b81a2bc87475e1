"""Tests for the excursion-set variants, IO, and the CLI."""

import numpy as np
import pytest

from repro import MVNSolver, SolverConfig
from repro.core import confidence_region
from repro.core.kernel_backend import available_backends
from repro.excursion import excursion_analysis, negative_confidence_region
from repro.kernels import ExponentialKernel, Geometry, build_covariance
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

    @pytest.mark.parametrize(
        "arrays",
        [{"other": np.eye(3), "covariance": None}, {"sigma": None, "extra": np.eye(3)}],
        ids=["covariance-key", "first-array"],
    )
    def test_mvn_from_npz(self, tmp_path, capsys, small_spd, arrays):
        """An ``.npz`` covariance is its ``covariance`` array, else its first."""
        path = tmp_path / "sigma.npz"
        np.savez(path, **{key: small_spd if value is None else value
                          for key, value in arrays.items()})
        code = cli.main(["mvn", "--covariance", str(path), "--samples", "200"])
        assert code == 0
        assert "dimension        : 8" in capsys.readouterr().out

    @staticmethod
    def _update_reference(sigma, u, *, downdate, lower, samples, seed):
        """The parent and updated probabilities the ``update`` command reports."""
        n = sigma.shape[0]
        a, b = np.full(n, lower), np.full(n, 1.0)
        with MVNSolver(SolverConfig(method="dense", n_samples=samples)) as solver:
            model = solver.model(sigma)
            parent = model.probability(a, b, rng=seed).probability
            child = model.update(u, downdate=downdate).probability(a, b, rng=seed).probability
        return f"{parent:.8g}", f"{child:.8g}"

    def test_update_synthetic(self, capsys):
        code = cli.main(["update", "--grid", "5", "--samples", "300", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        sigma = build_covariance(ExponentialKernel(1.0, 0.1),
                                 Geometry.regular_grid(5, 5).locations, nugget=1e-6)
        u = 0.1 * np.random.default_rng(2).standard_normal((25, 4))
        parent, child = self._update_reference(sigma, u, downdate=False, lower=-np.inf,
                                               samples=300, seed=2)
        assert "dimension        : 25" in out
        assert "update           : rank 4 update" in out
        assert f"parent prob      : {parent}  " in out
        assert f"updated prob     : {child}  " in out
        assert "lineage          : depth 1, parent " in out

    def test_update_file_downdate(self, tmp_path, capsys, small_spd):
        u = 0.5 * np.random.default_rng(3).standard_normal((8, 2))
        np.save(tmp_path / "sigma.npy", small_spd)
        np.save(tmp_path / "u.npy", u)
        code = cli.main([
            "update", "--covariance", str(tmp_path / "sigma.npy"),
            "--update-file", str(tmp_path / "u.npy"), "--downdate",
            "--lower", "-1.0", "--samples", "400", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        parent, child = self._update_reference(small_spd, u, downdate=True, lower=-1.0,
                                               samples=400, seed=5)
        assert "update           : rank 2 downdate" in out
        assert f"parent prob      : {parent}  " in out
        assert f"updated prob     : {child}  " in out
        assert parent != child

    def test_update_rejected_downdate_exits(self, capsys):
        with pytest.raises(SystemExit, match="downdate rejected"):
            cli.main(["update", "--grid", "4", "--samples", "200", "--downdate",
                      "--scale", "5"])

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
