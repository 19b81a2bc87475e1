"""Covariance kernel family.

The paper uses the Matérn covariance function (equation 6)

.. math::

    C(h; \\theta) = \\frac{\\sigma^2}{2^{\\nu-1}\\Gamma(\\nu)}
                    \\left(\\frac{h}{a}\\right)^{\\nu} K_\\nu\\!\\left(\\frac{h}{a}\\right)

with parameters ``theta = (sigma^2, a, nu)`` — marginal variance, spatial
range and smoothness — and its exponential special case (``nu = 1/2``) for
the synthetic datasets with ranges 0.033 / 0.1 / 0.234.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kv as bessel_kv

__all__ = [
    "CovarianceKernel",
    "MaternKernel",
    "ExponentialKernel",
    "GaussianKernel",
    "PoweredExponentialKernel",
]


class CovarianceKernel:
    """Base class: isotropic covariance as a function of distance."""

    #: statistical parameter vector theta, ordered as documented per subclass
    theta: tuple[float, ...]

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """Evaluate ``C(h)`` elementwise on an array of distances."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Marginal variance ``C(0)``."""
        raise NotImplementedError

    def correlation(self, h: np.ndarray) -> np.ndarray:
        """Correlation function ``C(h) / C(0)``."""
        return self(h) / self.variance

    def effective_range(self, level: float = 0.05, h_max: float = 10.0) -> float:
        """Distance at which the correlation drops to ``level`` (bisection)."""
        if not (0.0 < level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        lo, hi = 0.0, h_max
        corr_hi = float(self.correlation(np.array([hi]))[0])
        while corr_hi > level and hi < 1e6:
            hi *= 2.0
            corr_hi = float(self.correlation(np.array([hi]))[0])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.correlation(np.array([mid]))[0]) > level:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _as_distance(h) -> np.ndarray:
    arr = np.asarray(h, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("distances must be non-negative")
    return arr


@dataclass
class MaternKernel(CovarianceKernel):
    """Matérn covariance with parameters ``(sigma2, range_, smoothness)``.

    The parameterization follows equation (6) of the paper: the wind-speed
    experiment uses ``(1, 0.005069, 1.43391)``.
    """

    sigma2: float = 1.0
    range_: float = 0.1
    smoothness: float = 0.5

    def __post_init__(self) -> None:
        if self.sigma2 <= 0 or self.range_ <= 0 or self.smoothness <= 0:
            raise ValueError("Matérn parameters (sigma2, range, smoothness) must be positive")
        self.theta = (self.sigma2, self.range_, self.smoothness)

    @property
    def variance(self) -> float:
        return self.sigma2

    def __call__(self, h) -> np.ndarray:
        h = _as_distance(h)
        nu, a = self.smoothness, self.range_
        scaled = h / a
        out = np.empty_like(scaled)
        zero = scaled == 0.0
        out[zero] = self.sigma2
        nz = ~zero
        if np.any(nz):
            z = scaled[nz]
            coef = self.sigma2 / (2.0 ** (nu - 1.0) * gamma_fn(nu))
            vals = coef * np.power(z, nu) * bessel_kv(nu, z)
            # Bessel K underflows for large arguments; the limit is 0 covariance.
            vals = np.where(np.isfinite(vals), vals, 0.0)
            out[nz] = vals
        return out


@dataclass
class ExponentialKernel(CovarianceKernel):
    """Exponential covariance ``sigma2 * exp(-h / range)`` (Matérn nu = 1/2).

    The synthetic suites of the paper use ranges 0.033 (weak), 0.1 (medium)
    and 0.234 (strong correlation) with unit variance.
    """

    sigma2: float = 1.0
    range_: float = 0.1

    def __post_init__(self) -> None:
        if self.sigma2 <= 0 or self.range_ <= 0:
            raise ValueError("exponential parameters (sigma2, range) must be positive")
        self.theta = (self.sigma2, self.range_)

    @property
    def variance(self) -> float:
        return self.sigma2

    def __call__(self, h) -> np.ndarray:
        h = _as_distance(h)
        return self.sigma2 * np.exp(-h / self.range_)


@dataclass
class GaussianKernel(CovarianceKernel):
    """Squared-exponential covariance ``sigma2 * exp(-(h / range)^2)``."""

    sigma2: float = 1.0
    range_: float = 0.1

    def __post_init__(self) -> None:
        if self.sigma2 <= 0 or self.range_ <= 0:
            raise ValueError("Gaussian parameters (sigma2, range) must be positive")
        self.theta = (self.sigma2, self.range_)

    @property
    def variance(self) -> float:
        return self.sigma2

    def __call__(self, h) -> np.ndarray:
        h = _as_distance(h)
        return self.sigma2 * np.exp(-((h / self.range_) ** 2))


@dataclass
class PoweredExponentialKernel(CovarianceKernel):
    """Powered exponential covariance ``sigma2 * exp(-(h/range)^power)``, 0 < power <= 2."""

    sigma2: float = 1.0
    range_: float = 0.1
    power: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma2 <= 0 or self.range_ <= 0:
            raise ValueError("powered exponential parameters must be positive")
        if not (0.0 < self.power <= 2.0):
            raise ValueError("power must lie in (0, 2]")
        self.theta = (self.sigma2, self.range_, self.power)

    @property
    def variance(self) -> float:
        return self.sigma2

    def __call__(self, h) -> np.ndarray:
        h = _as_distance(h)
        return self.sigma2 * np.exp(-np.power(h / self.range_, self.power))
