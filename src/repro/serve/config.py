"""Serving configuration: the broker/shard knobs, validated once.

:class:`ServeConfig` plays the same role for :mod:`repro.serve` that
:class:`repro.solver.SolverConfig` plays for one solver session: a frozen
dataclass holding every knob of the serving layer — shard count, worker
mode, micro-batch shape, backpressure limit — validated at construction so
a broker can never be built around a nonsensical configuration.

The *evaluation* settings (method, sample size, kernel backend, ...) are
not duplicated here: a :class:`~repro.serve.broker.QueryBroker` takes a
``SolverConfig`` alongside its ``ServeConfig``, and every shard builds its
warm solver from that same config — which is what makes served results
bit-identical to direct :class:`repro.solver.Model` calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.utils.validation import check_count

__all__ = ["ServeConfig", "WORKER_MODES", "SIGMA_TRANSPORTS"]

#: accepted ``worker_mode`` values; ``"auto"`` resolves at pool start
WORKER_MODES = ("auto", "thread", "process")

#: accepted ``sigma_transport`` values; ``"auto"`` resolves at broker start
SIGMA_TRANSPORTS = ("auto", "shm", "inline")


@dataclass(frozen=True)
class ServeConfig:
    """Immutable bundle of query-serving settings.

    Attributes
    ----------
    n_shards : int
        Number of warm solver shards.  Each covariance is routed to exactly
        one shard (consistent fingerprint hashing), so its factorization is
        paid once per shard, not once per request.
    worker_mode : str
        ``"thread"`` runs each shard as a daemon thread inside the serving
        process (lowest latency; NumPy/BLAS release the GIL in the heavy
        kernels), ``"process"`` runs each shard as a ``multiprocessing``
        worker (true core isolation, one warm solver per process),
        ``"auto"`` picks ``"process"`` on multi-core machines and
        ``"thread"`` otherwise.
    max_batch : int
        Largest micro-batch the broker dispatches: requests sharing one
        batch key (Sigma fingerprint + sampling settings + seed) are
        grouped into a single ``probability_batch`` call of at most this
        many boxes.
    batch_window : float
        How long (seconds) an incomplete micro-batch may wait for
        companions on an *idle* shard before it is dispatched anyway.  A
        busy shard's batches form late instead: the broker holds their
        requests until the shard is free, however long that takes (see
        :mod:`repro.serve.broker`), so under load the window no longer
        bounds batch size; at light load it is the only thing that
        coalesces requests.  ``0`` dispatches a request for an idle shard
        as soon as the broker thread sees it.
    max_pending : int
        Backpressure limit: the maximum number of submitted-but-unfinished
        requests.  At the limit, :meth:`~repro.serve.broker.QueryBroker.submit`
        blocks (or raises :class:`~repro.serve.broker.ServeOverloadedError`
        with ``timeout=0``).
    n_workers : int
        Runtime worker threads of each shard's solver.
    policy : str
        Scheduling policy of each shard's runtime.
    cache_entries : int
        Factor-cache capacity of each shard's solver; also caps the number
        of warm :class:`~repro.solver.Model` objects a shard keeps.
    sigma_transport : str
        How covariances travel to shards: ``"inline"`` ships the ndarray
        through the shard queue (pickled for process shards), ``"shm"``
        publishes each distinct Sigma once into a refcounted
        ``multiprocessing.shared_memory`` segment and ships only a tiny
        descriptor (see :class:`repro.serve.net.SharedSigmaStore`),
        ``"auto"`` picks ``"shm"`` for process shards when the platform
        supports it and ``"inline"`` otherwise (thread shards already share
        the broker's address space, so inline is zero-copy there).
    """

    n_shards: int = 2
    worker_mode: str = "auto"
    max_batch: int = 32
    batch_window: float = 0.002
    max_pending: int = 1024
    n_workers: int = 1
    policy: str = "prio"
    cache_entries: int = 8
    sigma_transport: str = "auto"

    def __post_init__(self) -> None:
        for name in ("n_shards", "max_batch", "max_pending", "n_workers", "cache_entries"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        mode = str(self.worker_mode).lower()
        if mode not in WORKER_MODES:
            raise ValueError(
                f"worker_mode must be one of {WORKER_MODES}, got {self.worker_mode!r}"
            )
        object.__setattr__(self, "worker_mode", mode)
        if not (float(self.batch_window) >= 0.0):
            raise ValueError("batch_window must be >= 0")
        object.__setattr__(self, "batch_window", float(self.batch_window))
        transport = str(self.sigma_transport).lower()
        if transport not in SIGMA_TRANSPORTS:
            raise ValueError(
                f"sigma_transport must be one of {SIGMA_TRANSPORTS}, "
                f"got {self.sigma_transport!r}"
            )
        object.__setattr__(self, "sigma_transport", transport)

    def resolved_worker_mode(self) -> str:
        """The concrete worker mode ``"auto"`` resolves to on this machine."""
        if self.worker_mode != "auto":
            return self.worker_mode
        return "process" if (os.cpu_count() or 1) > 1 else "thread"

    def resolved_sigma_transport(self) -> str:
        """The concrete Sigma transport ``"auto"`` resolves to on this machine.

        ``"auto"`` uses shared memory exactly when it pays: process shards
        (inline would pickle the full matrix per shard) on a platform where
        POSIX shared memory works.  An explicit ``"shm"`` is honored even
        for thread shards — useful for exercising the segment lifecycle —
        but raises if the platform lacks shared memory.
        """
        from repro.serve.net.transport import shm_available

        if self.sigma_transport == "auto":
            if self.resolved_worker_mode() == "process" and shm_available():
                return "shm"
            return "inline"
        if self.sigma_transport == "shm" and not shm_available():
            raise RuntimeError(
                "sigma_transport='shm' requested but this platform has no "
                "working POSIX shared memory; use 'inline' or 'auto'"
            )
        return self.sigma_transport
