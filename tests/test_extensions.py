"""Tests for mixed-precision factorization: a single- or half-precision
factor and the MVN probability it gives, against the double-precision one."""

import numpy as np
import pytest

from repro.core import factorize, pmvn_integrate, PMVNOptions
from repro.kernels import ExponentialKernel, Geometry, build_covariance


@pytest.fixture
def spd_cov():
    geom = Geometry.regular_grid(7, 7)
    return build_covariance(ExponentialKernel(1.0, 0.25), geom.locations, nugget=1e-8)


class TestMixedPrecision:
    def test_single_precision_factor_close_to_double(self, spd_cov):
        double = factorize(spd_cov, method="dense", tile_size=14, precision="double")
        single = factorize(spd_cov, method="dense", tile_size=14, precision="single")
        diff = np.max(np.abs(double.to_dense() - single.to_dense()))
        assert 0.0 < diff < 1e-4

    def test_single_precision_probability_accuracy(self, spd_cov):
        """The paper's future-work claim: reduced precision barely moves the
        MVN probability at the accuracy levels the application needs."""
        n = spd_cov.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.5)
        options = PMVNOptions(n_samples=2000, rng=4)
        probs = {}
        for precision in ("double", "single"):
            factor = factorize(spd_cov, method="tlr", tile_size=14, accuracy=1e-4, precision=precision)
            probs[precision] = pmvn_integrate(a, b, factor, options).probability
        assert probs["single"] == pytest.approx(probs["double"], abs=1e-4)

    def test_half_precision_larger_error_than_single(self, spd_cov):
        dense = factorize(spd_cov, method="dense", tile_size=14, precision="double").to_dense()
        single = factorize(spd_cov, method="dense", tile_size=14, precision="single").to_dense()
        half = factorize(spd_cov, method="dense", tile_size=14, precision="half").to_dense()
        assert np.max(np.abs(half - dense)) > np.max(np.abs(single - dense))

    def test_unknown_precision_rejected(self, spd_cov):
        with pytest.raises(ValueError):
            factorize(spd_cov, precision="quad")
