"""A keyed cache of Cholesky factorizations.

Many-query workloads (confidence-region detection, batched box evaluation,
repeated calls from a service loop) evaluate MVN probabilities against the
same covariance over and over; the factorization is pure setup and can be
amortized.  :class:`FactorCache` keys factors on a content fingerprint of
the covariance plus the factorization settings ``(method, tile_size,
accuracy, max_rank, precision)``, so a cache hit is guaranteed
to reproduce exactly the factor a fresh :func:`repro.core.factor.factorize`
call would build.

>>> import numpy as np
>>> from repro.batch import FactorCache
>>> cache = FactorCache()
>>> sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
>>> f1 = cache.get_or_factorize(sigma, method="dense")
>>> f2 = cache.get_or_factorize(sigma, method="dense")
>>> f1 is f2, cache.factorize_count
(True, 1)
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro.core.factor import CholeskyFactor, factorize

__all__ = ["FactorCache", "FingerprintMemo", "sigma_fingerprint"]


def sigma_fingerprint(sigma) -> str:
    """Content hash of a covariance matrix (shape + normalized bytes).

    Two arrays with equal contents fingerprint identically regardless of
    object identity, so a cache survives reloading the matrix from disk.
    The input is normalized to a C-contiguous ``float64`` array before
    hashing: every factorization path converts to ``float64`` anyway, so a
    ``float32`` or transposed/strided view of the same values must not miss
    the cache (nor land on a different serve shard) just because its bytes
    are laid out differently.

    >>> import numpy as np
    >>> sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    >>> sigma_fingerprint(sigma) == sigma_fingerprint(sigma.astype(np.float32))
    True
    >>> sigma_fingerprint(sigma) == sigma_fingerprint(sigma.T.copy().T)
    True
    """
    arr = np.ascontiguousarray(np.asarray(sigma, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(str(arr.shape).encode())
    # hash the contiguous buffer itself: the same bytes as ``arr.tobytes()``
    # without an O(n^2) copy
    digest.update(arr)
    return digest.hexdigest()


class FingerprintMemo:
    """Object-identity fast path over :func:`sigma_fingerprint`.

    Hashing an ``n x n`` covariance is ``O(n^2)``, so repeated lookups with
    the *same array object* short-circuit through a weak identity memo and
    skip the content hash.  That assumes the arrays are immutable while
    memoized: mutating one in place and reusing the same object can return
    the fingerprint of the old contents — pass a fresh array after in-place
    edits.  Both :class:`FactorCache` and the serving broker
    (:class:`repro.serve.QueryBroker`) route their lookups through one of
    these; the memo bookkeeping is guarded by a lock, so concurrent
    ``submit()`` callers can share one safely (the ``O(n^2)`` content hash
    itself runs outside the lock).
    """

    def __init__(self, size: int = 16) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = int(size)
        self._lock = threading.Lock()
        # id -> (weakref to array, fingerprint); weak so the memo never pins
        # covariance arrays in memory, and a dead/reused id simply re-hashes
        self._memo: OrderedDict[int, tuple[weakref.ref, str]] = OrderedDict()

    def fingerprint(self, sigma) -> str:
        """Content fingerprint of ``sigma``, memoized on object identity."""
        if isinstance(sigma, np.ndarray):
            with self._lock:
                memo = self._memo.get(id(sigma))
                if memo is not None and memo[0]() is sigma:
                    self._memo.move_to_end(id(sigma))
                    return memo[1]
        fingerprint = sigma_fingerprint(sigma)
        if isinstance(sigma, np.ndarray):
            try:
                ref = weakref.ref(sigma)
            except TypeError:  # pragma: no cover - exotic ndarray subclass
                pass
            else:
                with self._lock:
                    self._memo[id(sigma)] = (ref, fingerprint)
                    while len(self._memo) > self.size:
                        self._memo.popitem(last=False)
        return fingerprint


class FactorCache:
    """LRU cache mapping ``(sigma fingerprint, settings)`` to factors.

    Parameters
    ----------
    max_entries : int
        Maximum number of factors kept alive; the least recently used entry
        is evicted first.  Factors can be large (a dense factor is
        ``O(n^2)``), so the default is deliberately small.

    Attributes
    ----------
    factorize_count : int
        Number of actual factorizations performed (cache misses that built
        a factor).  Tests and benchmarks use this to assert that the cache
        is doing its job.
    hits, misses : int
        Lookup statistics.

    Notes
    -----
    Lookups go through a :class:`FingerprintMemo`, so repeated calls with
    the *same array object* skip the ``O(n^2)`` content hash; the memo's
    immutability caveat applies.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, CholeskyFactor] = OrderedDict()
        self._fp_memo = FingerprintMemo()
        self.factorize_count = 0
        self.hits = 0
        self.misses = 0

    def _fingerprint(self, sigma) -> str:
        """Content fingerprint with an object-identity fast path."""
        return self._fp_memo.fingerprint(sigma)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FactorCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, factorized={self.factorize_count})"
        )

    @staticmethod
    def _settings_key(
        method: str,
        tile_size: int | None,
        accuracy: float,
        max_rank: int | None,
        precision: str,
    ) -> tuple:
        method = str(method).lower()
        if method == "dense":
            # dense factors ignore the TLR knobs; collapse them so a dense
            # factor is shared across accuracy settings
            accuracy, max_rank = None, None
        return (method, tile_size, accuracy, max_rank, precision)

    @staticmethod
    def key(
        sigma,
        method: str = "dense",
        tile_size: int | None = None,
        accuracy: float = 1e-3,
        max_rank: int | None = None,
        precision: str = "double",
    ) -> tuple:
        """The cache key for a covariance + factorization settings."""
        return (sigma_fingerprint(sigma),) + FactorCache._settings_key(
            method, tile_size, accuracy, max_rank, precision
        )

    def get_or_factorize(
        self,
        sigma,
        method: str = "dense",
        tile_size: int | None = None,
        accuracy: float = 1e-3,
        max_rank: int | None = None,
        runtime=None,
        precision: str = "double",
    ) -> CholeskyFactor:
        """Return a cached factor, building (and caching) it on first use.

        All keyword arguments mirror :func:`repro.core.factor.factorize`;
        ``runtime`` only affects how a miss is computed, not the key.
        """
        key = (self._fingerprint(sigma),) + self._settings_key(
            method, tile_size, accuracy, max_rank, precision
        )
        factor = self._entries.get(key)
        if factor is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return factor
        self.misses += 1
        factor = factorize(
            sigma,
            method=method,
            tile_size=tile_size,
            accuracy=accuracy,
            max_rank=max_rank,
            runtime=runtime,
            precision=precision,
        )
        self.factorize_count += 1
        self._entries[key] = factor
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return factor

    def clear(self) -> None:
        """Drop every cached factor (statistics kept)."""
        self._entries.clear()
