"""Quasi-Monte Carlo point sets.

Algorithm 2 fills an ``n x N`` matrix ``R`` with uniform variates; the paper
(following Genz and the tlrmvnmvt package) uses quasi-Monte Carlo sequences
with random shifts rather than plain pseudo-random numbers, which improves
the convergence rate of the probability estimate from ``O(N^{-1/2})`` towards
``O(N^{-1})``.

Three low-discrepancy constructions are provided from scratch plus a plain
pseudo-random fallback:

* :class:`RichtmyerLattice` — the Kronecker/Richtmyer rule based on square
  roots of primes, the generator used by Genz's original Fortran code.
* :class:`HaltonSequence` — radical-inverse sequence in coprime bases.
* :class:`SobolSequence` — digital (t,s)-sequence; thin wrapper over
  ``scipy.stats.qmc.Sobol`` kept behind the same interface.
* :class:`UniformRandom` — i.i.d. uniforms, the plain-MC baseline.

All generators produce points in the open unit cube ``(0, 1)`` (endpoints are
avoided because the SOV recursion feeds them into ``Phi^{-1}``).

Generation is one in-place pass over the point set: fractional parts are
taken as ``x -= floor(x)`` (exact for ``x >= 0``, so bitwise equal to
``x % 1.0``), a block of rows at a time through one small scratch array
(:func:`_frac_inplace`), and the clip into ``(0, 1)`` is an ``out=``
maximum/minimum.
:class:`RichtmyerLattice` and :class:`HaltonSequence` build their points
dimension-major, so their ``points()`` returns the ``(n_points, dim)``
transpose view of a C-contiguous ``(dim, n_points)`` array and
:func:`qmc_samples` hands that array back without a copy.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "UniformRandom",
    "HaltonSequence",
    "RichtmyerLattice",
    "SobolSequence",
    "canonical_qmc",
    "qmc_samples",
    "sequence_from_name",
    "first_primes",
]


def first_primes(count: int) -> np.ndarray:
    """Return the first ``count`` prime numbers (simple sieve)."""
    count = check_positive_int(count, "count")
    limit = max(16, int(count * (np.log(count + 1) + np.log(np.log(count + 3)))) + 10)
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= count:
            return primes[:count].astype(np.int64)
        limit *= 2


#: doubles per block of :func:`_frac_inplace` (a 256 KB scratch)
_FRAC_BLOCK = 1 << 15


def _frac_inplace(pts: np.ndarray) -> None:
    """``pts -= floor(pts)`` without a second ``pts``-sized array.

    Floors one block of rows of the C-contiguous layout at a time into a
    small scratch; the operation is elementwise, so the result is bitwise
    that of the whole-array form.
    """
    rows = pts if pts.flags.c_contiguous else pts.T
    step = max(1, _FRAC_BLOCK // max(1, rows.shape[1]))
    scratch = np.empty((min(step, rows.shape[0]), rows.shape[1]))
    for r0 in range(0, rows.shape[0], step):
        block = rows[r0:r0 + step]
        floor = scratch[:block.shape[0]]
        np.floor(block, out=floor)
        block -= floor


class QMCSequence:
    """Base class: a generator of ``(n_points, dim)`` uniform point sets."""

    def __init__(self, dim: int, rng: np.random.Generator | int | None = None) -> None:
        self.dim = check_positive_int(dim, "dim")
        self.rng = np.random.default_rng(rng)

    def points(self, n_points: int) -> np.ndarray:
        """Return an ``(n_points, dim)`` array of points in the open unit cube."""
        raise NotImplementedError

    def _randomize(self, pts: np.ndarray, shift: bool) -> np.ndarray:
        """Shift (optionally) and clip a freshly built point set in place."""
        if shift:
            # pts + offset lies in [0, 2), where x - floor(x) == x % 1.0 exactly
            pts += self.rng.random(self.dim)
            _frac_inplace(pts)
        # keep strictly inside (0, 1) for the downstream Phi^{-1}
        np.maximum(pts, np.finfo(np.float64).tiny, out=pts)
        return np.minimum(pts, 1.0 - 1e-16, out=pts)


class UniformRandom(QMCSequence):
    """Plain i.i.d. uniform variates (the Monte Carlo baseline)."""

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        pts = self.rng.random((n_points, self.dim))
        return self._randomize(pts, shift=False)


class RichtmyerLattice(QMCSequence):
    """Richtmyer (Kronecker) lattice rule with a random shift.

    Point ``k`` has coordinates ``frac(k * sqrt(p_j))`` for the ``j``-th prime
    ``p_j``.  This is the rule used in Genz's MVN code and in tlrmvnmvt.
    """

    def __init__(self, dim: int, rng=None, shift: bool = True) -> None:
        super().__init__(dim, rng)
        self.shift = shift
        self._alphas = np.sqrt(first_primes(self.dim).astype(np.float64))

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        k = np.arange(1, n_points + 1, dtype=np.float64)
        pts = np.multiply.outer(self._alphas, k)
        _frac_inplace(pts)
        return self._randomize(pts.T, shift=self.shift)


class HaltonSequence(QMCSequence):
    """Halton sequence (radical inverse in coprime prime bases)."""

    def __init__(self, dim: int, rng=None, shift: bool = True, skip: int = 20) -> None:
        super().__init__(dim, rng)
        self.shift = shift
        self.skip = int(skip)
        self._bases = first_primes(self.dim)

    @staticmethod
    def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
        result = np.zeros(indices.shape, dtype=np.float64)
        frac = 1.0 / base
        idx = indices.copy()
        while np.any(idx > 0):
            result += frac * (idx % base)
            idx //= base
            frac /= base
        return result

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        indices = np.arange(self.skip + 1, self.skip + n_points + 1, dtype=np.int64)
        pts = np.empty((self.dim, n_points), dtype=np.float64)
        for j, base in enumerate(self._bases):
            pts[j] = self._radical_inverse(indices, int(base))
        return self._randomize(pts.T, shift=self.shift)


class SobolSequence(QMCSequence):
    """Scrambled Sobol sequence via ``scipy.stats.qmc`` behind the common API."""

    def __init__(self, dim: int, rng=None, shift: bool = False) -> None:
        super().__init__(dim, rng)
        self.shift = shift
        from scipy.stats import qmc as scipy_qmc

        seed = int(self.rng.integers(0, 2**31 - 1))
        self._engine = scipy_qmc.Sobol(d=self.dim, scramble=True, seed=seed)

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        pts = self._engine.random(n_points)
        return self._randomize(pts, shift=self.shift)


_SEQUENCES = {
    "random": UniformRandom,
    "richtmyer": RichtmyerLattice,
    "halton": HaltonSequence,
    "sobol": SobolSequence,
}

_ALIASES = {"mc": "random", "lattice": "richtmyer"}


def canonical_qmc(name: str) -> str:
    """Canonical QMC sequence name: lower-cased, aliases resolved.

    ``"lattice"`` is ``"richtmyer"`` and ``"mc"`` is ``"random"``; any other
    unknown name raises ``ValueError`` listing the accepted names.
    """
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    if key not in _SEQUENCES:
        raise ValueError(
            f"unknown QMC sequence {name!r}; available: {sorted([*_SEQUENCES, *_ALIASES])}"
        )
    return key


def sequence_from_name(name: str, dim: int, rng=None) -> QMCSequence:
    """Instantiate a sequence generator by name."""
    return _SEQUENCES[canonical_qmc(name)](dim, rng=rng)


def qmc_samples(dim: int, n_samples: int, method: str = "richtmyer", rng=None) -> np.ndarray:
    """Convenience wrapper returning a ``(dim, n_samples)`` uniform matrix.

    This is the orientation Algorithm 2 uses for the ``R`` matrix: one row
    per MVN dimension, one column per QMC sample (MC chain).
    """
    seq = sequence_from_name(method, dim, rng=rng)
    return np.ascontiguousarray(seq.points(n_samples).T)
