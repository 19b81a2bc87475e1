"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import ExponentialKernel, Geometry, MaternKernel, build_covariance


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "docs: executable documentation — doc-snippet execution and doc-drift "
        "guards (select with `pytest -m docs`); part of the default tier-1 run",
    )
    config.addinivalue_line(
        "markers",
        "slow: stress and property tests with larger iteration counts "
        "(deselect with `pytest -m 'not slow'`); part of the default tier-1 run",
    )
    config.addinivalue_line(
        "markers",
        "timeout(seconds): advisory wall-clock bound for a test; enforced "
        "in-test via watchdog joins (pytest-timeout is not a dependency)",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_spd(rng) -> np.ndarray:
    """A well-conditioned 8x8 SPD matrix."""
    a = rng.standard_normal((8, 8))
    return a @ a.T + 8.0 * np.eye(8)


@pytest.fixture
def medium_spd(rng) -> np.ndarray:
    """A 40x40 SPD covariance from an exponential kernel (realistic structure)."""
    geom = Geometry.regular_grid(8, 5)
    return build_covariance(ExponentialKernel(1.0, 0.2), geom.locations, nugget=1e-8)


@pytest.fixture
def grid_geometry() -> Geometry:
    return Geometry.regular_grid(6, 5)


@pytest.fixture
def exp_kernel() -> ExponentialKernel:
    return ExponentialKernel(sigma2=1.0, range_=0.2)


@pytest.fixture
def matern_kernel() -> MaternKernel:
    return MaternKernel(sigma2=1.0, range_=0.15, smoothness=1.5)
