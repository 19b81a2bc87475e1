"""The query broker: concurrent submissions in, micro-batched sweeps out.

:class:`QueryBroker` is the front door of :mod:`repro.serve`.  Callers —
request handlers, asyncio tasks, plain threads — call :meth:`QueryBroker.submit`
from anywhere and get a :class:`concurrent.futures.Future` back immediately;
``future.result()`` (or ``await asyncio.wrap_future(future)``) delivers the
:class:`repro.mvn.result.MVNResult`.

Behind the ``submit()`` queue a single dispatcher thread **micro-batches**:
requests sharing one batch key — covariance fingerprint (see
:func:`repro.batch.cache.sigma_fingerprint`), sample size, QMC sequence and
seed — are grouped, for at most ``batch_window`` seconds or until
``max_batch`` requests, into one
:meth:`repro.solver.Model.probability_batch` call, dispatched to the shard
that owns the fingerprint (:func:`repro.serve.pool.shard_for_fingerprint`).
Batching changes the schedule, never the estimator, and the shard runs the
very same solver code a direct caller would — so served probabilities are
bit-identical to direct :class:`repro.solver.Model` calls with the same
seed (``tests/test_serve.py`` pins this per kernel backend).  A
micro-batch of lane-aligned queries sweeps in cross-box tiles rather than
per-box chunks (the layout rule of :mod:`repro.core.pmvn`);
``details["serve"]["fusion"]`` records which layout ran.

Backpressure is a hard cap on submitted-but-unfinished requests
(``max_pending``): at the limit ``submit`` blocks, and ``submit(...,
timeout=0)`` raises :class:`ServeOverloadedError` instead — load-shedding
for latency-sensitive callers.  :meth:`QueryBroker.stats` exposes queue
depth, batch fill and per-shard factor-cache hit rates
(:class:`repro.serve.stats.ServeStats`).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError

import numpy as np

from repro.batch.cache import FingerprintMemo
from repro.core.update import lineage_fingerprint, normalize_update
from repro.mvn.result import MVNResult
from repro.query import MVNQuery
from repro.serve.config import ServeConfig
from repro.serve.pool import ModelRoster, ShardPool, lineage_payload, shard_for_fingerprint
from repro.serve.stats import ServeStats, ShardSnapshot
from repro.solver.config import SolverConfig
from repro.utils.validation import check_limits

__all__ = ["QueryBroker", "ServeError", "ServeOverloadedError", "SigmaUpdate"]


class SigmaUpdate:
    """A covariance described as a rank-k update of another covariance.

    Submitted in place of the ``sigma`` array
    (``broker.submit(a, b, SigmaUpdate(parent, u), ...)``), this tells the
    broker the query targets ``parent ± u u^T`` *and how it got there*.
    The broker derives the child's fingerprint from the parent's
    (:func:`repro.core.update.lineage_fingerprint`), routes the batch to
    the shard already holding the parent factor, and ships only the
    ``n x k`` update matrix — the shard up/down-dates its warm parent
    model instead of factorizing the child covariance from scratch.  When
    the parent is *not* resident (first contact, roster eviction, a dead
    worker), the broker assembles the child covariance and falls back to
    the ordinary cold ship + refactorization path.

    ``parent`` may itself be a :class:`SigmaUpdate`, so sliding-window
    streams can chain updates without ever materializing intermediate
    covariances broker-side.
    """

    __slots__ = ("parent", "u", "downdate")

    def __init__(self, parent, u, downdate: bool = False) -> None:
        if isinstance(parent, SigmaUpdate):
            self.parent = parent
        else:
            self.parent = np.ascontiguousarray(np.asarray(parent, dtype=np.float64))
            if self.parent.ndim != 2 or self.parent.shape[0] != self.parent.shape[1]:
                raise ValueError(
                    f"parent sigma must be a square matrix, got shape {self.parent.shape}"
                )
        self.u = normalize_update(u, self.n)
        self.downdate = bool(downdate)

    @property
    def n(self) -> int:
        """Dimension of the (chain of) covariance(s)."""
        parent = self.parent
        while isinstance(parent, SigmaUpdate):
            parent = parent.parent
        return int(parent.shape[0])

    def assemble(self) -> np.ndarray:
        """Materialize the child covariance (the cold-fallback path)."""
        base = self.parent.assemble() if isinstance(self.parent, SigmaUpdate) else self.parent
        sign = -1.0 if self.downdate else 1.0
        return base + sign * (self.u @ self.u.T)

#: dispatcher-queue sentinel: flush everything, stop the shards, exit
_CLOSE = object()


class _Resize:
    """Dispatcher control message: change the shard count to ``n_shards``.

    Routed through the dispatch queue so the resize is serialized with the
    flushes — routing (``fingerprint -> shard``) only ever changes between
    batches, never under one.
    """

    __slots__ = ("n_shards", "done", "error")

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self.done = threading.Event()
        self.error: BaseException | None = None


class ServeOverloadedError(RuntimeError):
    """Raised by ``submit`` when backpressure rejects a request."""


class ServeError(RuntimeError):
    """A shard failed to evaluate the batch containing this request."""


class _Request:
    """One submitted query, waiting to be batched.

    Carries its (normalized) covariance so the dispatcher can ship it to a
    shard that lacks the model — the broker holds no covariance registry of
    its own, so a Sigma only stays in memory while requests for it are
    pending (or a shard keeps its warm model).
    """

    __slots__ = ("a", "b", "sigma", "mean", "future", "enqueued")

    def __init__(self, a, b, sigma, mean, future, enqueued) -> None:
        self.a = a
        self.b = b
        self.sigma = sigma
        self.mean = mean
        self.future = future
        self.enqueued = enqueued


class _Bucket:
    """Requests accumulating toward one micro-batch (one batch key)."""

    __slots__ = ("requests", "deadline")

    def __init__(self, deadline: float) -> None:
        self.requests: list[_Request] = []
        self.deadline = deadline


class QueryBroker:
    """Serve many concurrent MVN probability queries from warm solver shards.

    Parameters
    ----------
    config : ServeConfig, optional
        Serving knobs (shards, worker mode, batching, backpressure);
        defaults to ``ServeConfig()``.
    solver_config : SolverConfig or str, optional
        Evaluation settings every shard solver is built from; a method
        string is accepted as shorthand.  Defaults to ``SolverConfig()``.

    Notes
    -----
    The broker is a context manager; :meth:`close` drains every pending
    request, shuts the shards down cleanly and makes later ``submit`` calls
    raise :class:`RuntimeError`.

    >>> import numpy as np
    >>> from repro.serve import QueryBroker, ServeConfig
    >>> from repro.solver import SolverConfig
    >>> sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    >>> with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
    ...                  SolverConfig(method="dense", n_samples=400)) as broker:
    ...     futures = [broker.submit([-np.inf, -np.inf], [u, u], sigma, rng=0)
    ...                for u in (0.0, 1.0)]
    ...     p0, p1 = (f.result().probability for f in futures)
    >>> p0 < p1
    True
    """

    def __init__(self, config: ServeConfig | None = None,
                 solver_config: SolverConfig | str | None = None) -> None:
        if config is None:
            config = ServeConfig()
        elif not isinstance(config, ServeConfig):
            raise TypeError(f"config must be a ServeConfig, got {type(config).__name__}")
        if solver_config is None:
            solver_config = SolverConfig()
        elif isinstance(solver_config, str):
            solver_config = SolverConfig(method=solver_config)
        elif not isinstance(solver_config, SolverConfig):
            raise TypeError(
                f"solver_config must be a SolverConfig or method string, "
                f"got {type(solver_config).__name__}"
            )
        self.config = config
        self.solver_config = solver_config

        self._pool = ShardPool(
            config.n_shards, solver_config,
            worker_mode=config.resolved_worker_mode(),
            n_workers=config.n_workers, policy=config.policy,
            cache_entries=config.cache_entries,
        )
        self._fingerprints = FingerprintMemo()
        # zero-copy transport: distinct covariances are published once into
        # refcounted shared-memory segments and shards receive descriptors
        # (see repro.serve.net.transport); "inline" ships the ndarray itself
        self.sigma_transport = config.resolved_sigma_transport()
        if self.sigma_transport == "shm":
            from repro.serve.net.transport import SharedSigmaStore

            self._store = SharedSigmaStore()
        else:
            self._store = None
        # broker-side mirror of each shard's model LRU: the same ModelRoster
        # code the worker runs, updated in the same (FIFO queue) order, so
        # the broker knows when a shard needs the covariance re-shipped.
        # Guarded by _roster_lock: the dispatcher mutates it on flush/resize,
        # a collector mutates it when its shard dies.
        self._roster_lock = threading.Lock()
        self._rosters = [self._make_roster() for _ in range(config.n_shards)]
        self._retired: list = []  # shrunk-away shards awaiting join
        self._dead_shards: set[int] = set()  # ids whose segments were released

        self._queue: queue.Queue = queue.Queue()
        self._slots = threading.BoundedSemaphore(config.max_pending)
        self._submit_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._closed = False
        self._batch_ids = itertools.count()
        # batch_id -> (requests, shard_id, dispatched_at)
        self._inflight: dict[int, tuple[list[_Request], int, float, dict | None]] = {}
        self._stats = ServeStats(max_batch=config.max_batch)
        self._stats.shards = [ShardSnapshot(shard=i) for i in range(config.n_shards)]

        self._pool.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="repro-serve-dispatcher"
        )
        self._collectors = [
            threading.Thread(target=self._collect_loop, args=(shard,), daemon=True,
                             name=f"repro-serve-collector-{shard.shard_id}")
            for shard in self._pool.shards
        ]
        self._dispatcher.start()
        for collector in self._collectors:
            collector.start()

    def _make_roster(self) -> ModelRoster:
        return ModelRoster(self.config.cache_entries, on_evict=self._on_roster_evict)

    def _on_roster_evict(self, fingerprint: str, _value) -> None:
        """A shard mirror evicted a model: drop its segment reference."""
        if self._store is not None:
            self._store.release(fingerprint)

    # -- submission ------------------------------------------------------------------
    def submit(self, a, b=None, sigma=None, *, mean=None, n_samples: int | None = None,
               rng=None, qmc: str | None = None, target_error: float | None = None,
               max_samples: int | None = None, timeout: float | None = None,
               batch_tag=None) -> Future:
        """Queue one probability query; returns a Future of its result.

        Accepts either explicit limits (``submit(a, b, sigma, ...)``) or a
        declarative :class:`repro.query.MVNQuery` with the covariance as
        the second argument (``submit(query, sigma, ...)``) — the query
        carries limits, mean, sampling overrides, error target, budget and
        tag, and both spellings validate through the same path.

        Parameters
        ----------
        a : array_like (n,) or MVNQuery
            Lower integration limits, or the whole query object.
        b : array_like (n,)
            Upper integration limits (``+/- inf`` allowed); omitted when a
            query object is given.
        sigma : array_like (n, n)
            Covariance matrix; queries sharing a covariance (by *content*)
            are routed to the same warm shard and micro-batched together.
        mean : scalar or array_like (n,), optional
            Field mean, absorbed into the limits exactly like
            ``Model(sigma, mean=...)``.
        n_samples, qmc : optional
            Per-request overrides of the solver config (part of the batch
            key: only requests with equal settings share a sweep).
        target_error, max_samples : optional
            Adaptive accuracy contract, executed shard-side exactly like
            :meth:`repro.solver.Model.probability` (part of the batch key).
        rng : int or None
            QMC randomization seed.  Serving requires a reproducible seed
            (or ``None`` for fresh entropy per request); generator objects
            are rejected because they cannot be shared with a shard without
            changing the stream.
        timeout : float, optional
            Backpressure behaviour at ``max_pending`` outstanding requests:
            ``None`` (default) blocks until a slot frees, a number waits at
            most that many seconds, ``0`` raises
            :class:`ServeOverloadedError` immediately.
        batch_tag : hashable, optional
            Extra batch-key component for pipeline-aware batching: requests
            with different tags never share a micro-batch window, so a
            pipeline executor can keep each stage's sweep together (see
            :func:`repro.query.execute_pipeline`).

        Returns
        -------
        concurrent.futures.Future
            Resolves to the :class:`repro.mvn.result.MVNResult`, with
            serving metadata under ``result.details["serve"]`` and the
            executed plan under ``result.details["plan"]``.  Awaitable via
            ``asyncio.wrap_future``.
        """
        if isinstance(a, MVNQuery):
            query = a
            if sigma is None:
                sigma = b
            elif b is not None:
                raise TypeError("submit(query, sigma) takes no separate b= limits")
            if (mean is not None or n_samples is not None or rng is not None
                    or qmc is not None or target_error is not None
                    or max_samples is not None):
                raise TypeError(
                    "submit(query, sigma) carries every override inside the "
                    "MVNQuery; drop the duplicate keyword arguments"
                )
        else:
            query = MVNQuery(
                a, b, mean=mean, n_samples=n_samples, rng=rng, qmc=qmc,
                target_error=target_error, max_samples=max_samples,
            )
        if sigma is None:
            raise TypeError("submit requires the covariance matrix (sigma)")
        rng = query.rng
        if rng is not None and not isinstance(rng, (int, np.integer)):
            raise TypeError(
                "serve submissions take rng=None or an integer seed, got "
                f"{type(rng).__name__} (generator objects cannot be shared "
                "with a shard without changing the stream)"
            )
        if isinstance(sigma, SigmaUpdate):
            sigma_arr = sigma  # the dispatcher resolves lineage at flush time
            n = sigma.n
        else:
            sigma_arr = np.ascontiguousarray(np.asarray(sigma, dtype=np.float64))
            if sigma_arr.ndim != 2 or sigma_arr.shape[0] != sigma_arr.shape[1]:
                raise ValueError(f"sigma must be a square matrix, got shape {sigma_arr.shape}")
            n = sigma_arr.shape[0]
        a_vec, b_vec = check_limits(query.a, query.b, n)
        # query.mean is already validated/normalized by MVNQuery (None,
        # float, or a length-n vector — the length matches because the
        # limits just checked out against n); collapse to the wire form
        # the shards expect: None for a zero mean, else a vector
        mean = query.mean
        if mean is None or (np.isscalar(mean) and float(mean) == 0.0):
            mean_vec = None
        elif np.isscalar(mean):
            mean_vec = np.full(n, float(mean))
        else:
            mean_vec = mean

        if isinstance(sigma_arr, SigmaUpdate):
            fingerprint = self._update_fingerprints(sigma_arr)[0]
        else:
            fingerprint = self._fingerprints.fingerprint(sigma_arr)
        # under one SolverConfig the covariance alone fixes the planned
        # method and backend, so the fingerprint already keeps requests
        # that would plan apart in separate batches
        key = (
            fingerprint,
            self.solver_config.n_samples if query.n_samples is None else query.n_samples,
            self.solver_config.qmc if query.qmc is None else query.qmc,
            None if rng is None else int(rng),
            query.target_error,
            query.max_samples,
            batch_tag,
        )

        if not self._slots.acquire(timeout=timeout):
            with self._state_lock:
                self._stats.rejected += 1
            raise ServeOverloadedError(
                f"serving queue is full ({self.config.max_pending} outstanding "
                "requests); retry later or raise ServeConfig.max_pending"
            )
        future: Future = Future()
        request = _Request(a_vec, b_vec, sigma_arr, mean_vec, future, time.perf_counter())
        try:
            with self._submit_lock:
                if self._closed:
                    raise RuntimeError("this QueryBroker is closed; create a new one")
                with self._state_lock:
                    self._stats.submitted += 1
                    self._stats.queue_depth += 1
                    self._stats.max_queue_depth = max(
                        self._stats.max_queue_depth, self._stats.queue_depth
                    )
                self._queue.put((key, request))
        except BaseException:
            self._slots.release()
            raise
        return future

    def submit_async(self, a, b=None, sigma=None, **kwargs):
        """``submit`` wrapped for asyncio: returns an awaitable future.

        Accepts both submission forms (explicit limits or an
        :class:`repro.query.MVNQuery` first argument).  Must be called from
        a running event loop (it binds the returned future to it); the
        blocking-submit caveats of ``timeout=`` apply to the synchronous
        part.
        """
        import asyncio

        return asyncio.wrap_future(self.submit(a, b, sigma, **kwargs))

    # -- lifecycle -------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed broker rejects submissions)."""
        return self._closed

    @property
    def n_shards(self) -> int:
        """The current shard count (changes under :meth:`resize`)."""
        return len(self._pool.shards)

    @property
    def sigma_store(self):
        """The shared-memory sigma store, or ``None`` for inline transport."""
        return self._store

    def resize(self, n_shards: int, timeout: float | None = 30.0) -> int:
        """Change the shard count; blocks until the fleet matches.

        Thread-safe (the autoscaler calls it from its own thread): the
        request rides the dispatch queue, so routing only changes between
        micro-batches.  Growth starts fresh shards and — under the
        shared-memory transport — warm-starts them with every resident
        covariance that re-routes to them; shrinking retires tail shards,
        which drain their queued batches before stopping.  Returns the new
        shard count.
        """
        target = int(n_shards)
        if target < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        request = _Resize(target)
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("this QueryBroker is closed; create a new one")
            self._queue.put((None, request))
        if not request.done.wait(timeout):
            raise ServeError(f"resize to {target} shards did not complete in time")
        if request.error is not None:
            raise ServeError(f"resize to {target} shards failed: {request.error}")
        return self.n_shards

    def __enter__(self) -> "QueryBroker":
        if self._closed:
            raise RuntimeError("this QueryBroker is closed; create a new one")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, timeout: float | None = 60.0) -> None:
        """Drain every pending request, stop the shards, join the workers.

        Idempotent.  Every already-submitted Future resolves (the shards
        finish their queued batches before acknowledging the stop); new
        ``submit`` calls raise immediately.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put((None, _CLOSE))
        self._dispatcher.join(timeout)
        for collector in self._collectors:
            collector.join(timeout)
        self._pool.join(timeout)
        for shard in self._retired:
            shard.join(timeout)
        if self._store is not None:
            # every worker has stopped (or been terminated): unlink whatever
            # segments the rosters still reference — nothing may survive a
            # closed broker
            self._store.close()

    # -- observability ---------------------------------------------------------------
    def stats(self) -> ServeStats:
        """A consistent snapshot of the serving counters."""
        with self._state_lock:
            snapshot = ServeStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                failed=self._stats.failed,
                rejected=self._stats.rejected,
                batches=self._stats.batches,
                queue_depth=self._stats.queue_depth,
                max_queue_depth=self._stats.max_queue_depth,
                max_batch=self._stats.max_batch,
                sigma_sends=self._stats.sigma_sends,
                sigma_skips=self._stats.sigma_skips,
                sigma_bytes=self._stats.sigma_bytes,
                preloads=self._stats.preloads,
                lineage_routes=self._stats.lineage_routes,
                lineage_fallbacks=self._stats.lineage_fallbacks,
                update_sends=self._stats.update_sends,
                update_bytes=self._stats.update_bytes,
                shards=[ShardSnapshot(**vars(s)) for s in self._stats.shards],
            )
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"QueryBroker(shards={self.n_shards}, "
            f"mode={self._pool.worker_mode!r}, method={self.solver_config.method!r}, "
            f"{state})"
        )

    # -- dispatcher ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        buckets: dict[tuple, _Bucket] = {}
        window = self.config.batch_window
        max_batch = self.config.max_batch
        while True:
            timeout = None
            if buckets:
                now = time.perf_counter()
                timeout = max(0.0, min(b.deadline for b in buckets.values()) - now)
            try:
                items = [self._queue.get(timeout=timeout)]
            except queue.Empty:
                items = []
            # drain the whole backlog before making any batching decision:
            # requests that queued up while a shard was busy must coalesce
            # even when their window already expired (the window bounds how
            # long the *dispatcher* may idle, not how full a batch can get)
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            closing = False
            for key, item in items:
                if item is _CLOSE:
                    closing = True  # submit() rejects after close: no later items
                    continue
                if isinstance(item, _Resize):
                    self._apply_resize(item)
                    continue
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = _Bucket(item.enqueued + window)
                bucket.requests.append(item)
                if len(bucket.requests) >= max_batch:
                    self._flush(key, buckets.pop(key))
            if closing:
                for bucket_key in list(buckets):
                    self._flush(bucket_key, buckets.pop(bucket_key))
                self._pool.stop()
                return
            if buckets:
                now = time.perf_counter()
                for bucket_key in [k for k, b in buckets.items() if b.deadline <= now]:
                    self._flush(bucket_key, buckets.pop(bucket_key))

    def _flush(self, key: tuple, bucket: _Bucket) -> None:
        """Dispatch one micro-batch to the shard owning its fingerprint."""
        (fingerprint, n_samples, qmc, seed, target_error, max_samples, _batch_tag) = key
        requests = bucket.requests
        sigma_src = requests[0].sigma
        if isinstance(sigma_src, SigmaUpdate):
            shard_id = self._route_update(fingerprint, sigma_src)
            sigma, lineage = self._update_payload(shard_id, fingerprint, sigma_src)
        else:
            shard_id = self._pool.route(fingerprint)
            sigma = self._sigma_payload(shard_id, fingerprint, sigma_src)
            lineage = None
        boxes = [(request.a, request.b) for request in requests]
        if all(request.mean is None for request in requests):
            means = None
        else:
            means = np.stack([
                request.mean if request.mean is not None else np.zeros(len(request.a))
                for request in requests
            ])
        batch_id = next(self._batch_ids)
        with self._state_lock:
            self._inflight[batch_id] = (requests, shard_id, time.perf_counter(),
                                        lineage)
            self._stats.batches += 1
        self._pool.send(
            shard_id,
            ("batch", batch_id, fingerprint, sigma, boxes, means, n_samples, qmc,
             seed, target_error, max_samples),
        )

    def _sigma_payload(self, shard_id: int, fingerprint: str, sigma):
        """The covariance payload for one batch: ndarray, descriptor or None.

        Runs the same :class:`~repro.serve.pool.ModelRoster` rule as
        :func:`repro.serve.pool.shard_serve_loop`, in the same (FIFO queue)
        order, so the mirror cannot drift from the worker.  A resident
        fingerprint is never re-shipped (``sigma_skips`` counts the saved
        sends); under the shared-memory transport a ship is a descriptor
        tuple and the matrix bytes are published at most once per
        fingerprint cluster-wide.
        """
        with self._roster_lock:
            roster = self._rosters[shard_id]
            if roster.get(fingerprint) is not None:
                with self._state_lock:
                    self._stats.sigma_skips += 1
                return None
            if self._store is not None:
                published_before = self._store.publish_count
                payload = self._store.publish(fingerprint, sigma)
                shipped_bytes = (
                    sigma.nbytes if self._store.publish_count > published_before else 0
                )
            else:
                payload = sigma
                shipped_bytes = sigma.nbytes
            roster.insert(fingerprint, True)
        with self._state_lock:
            self._stats.sigma_sends += 1
            self._stats.sigma_bytes += shipped_bytes
        return payload

    # -- lineage (rank-k updated models) ----------------------------------------------
    def _update_fingerprints(self, update: "SigmaUpdate") -> tuple[str, str, str]:
        """``(child, parent, root)`` fingerprints of an update chain.

        The child fingerprint is *derived* from the parent's via
        :func:`repro.core.update.lineage_fingerprint`, never by hashing an
        assembled child covariance — matching what ``Model.update`` stamps
        on the worker side, so warm routing and residency checks agree.
        """
        if isinstance(update.parent, SigmaUpdate):
            parent_fp, _, root_fp = self._update_fingerprints(update.parent)
        else:
            parent_fp = self._fingerprints.fingerprint(update.parent)
            root_fp = parent_fp
        child_fp = lineage_fingerprint(parent_fp, update.u, update.downdate)
        return child_fp, parent_fp, root_fp

    def _route_update(self, fingerprint: str, update: "SigmaUpdate") -> int:
        """Updated models follow their root ancestor's shard.

        Routing by the *root* fingerprint colocates a whole update chain
        with the factor it descends from, so every step ships only the
        rank-k payload.  If that shard has died, fall back to the child's
        own hash route — the batch lands cold and refactorizes from the
        assembled covariance instead of wedging on a dead slot.
        """
        _, _, root_fp = self._update_fingerprints(update)
        home = self._pool.route(root_fp)
        with self._state_lock:
            dead = home in self._dead_shards
        if dead:
            return self._pool.route(fingerprint)
        return home

    def _update_payload(self, shard_id: int, fingerprint: str,
                        update: "SigmaUpdate"):
        """``(payload, lineage-details)`` for a batch targeting an updated model.

        Warm path: the parent factor is resident at ``shard_id``, so the
        batch carries only ``("lineage", parent_fp, U, downdate)`` — the
        shard applies the rank-k up/down-date in place of a factorization.
        Cold path: the parent is not resident (first contact after a shard
        death or roster eviction), so the child covariance is assembled
        here and shipped like any other Sigma.
        """
        _, parent_fp, _ = self._update_fingerprints(update)
        with self._roster_lock:
            roster = self._rosters[shard_id]
            if roster.get(fingerprint) is not None:
                with self._state_lock:
                    self._stats.sigma_skips += 1
                return None, {"parent": parent_fp, "warm": True}
            if roster.get(parent_fp) is not None:
                roster.insert(fingerprint, True)
                with self._state_lock:
                    self._stats.lineage_routes += 1
                    self._stats.update_sends += 1
                    self._stats.update_bytes += update.u.nbytes
                return (lineage_payload(parent_fp, update.u, update.downdate),
                        {"parent": parent_fp, "warm": True})
        with self._state_lock:
            self._stats.lineage_fallbacks += 1
        sigma = np.ascontiguousarray(update.assemble())
        payload = self._sigma_payload(shard_id, fingerprint, sigma)
        return payload, {"parent": parent_fp, "warm": False}

    # -- resizing --------------------------------------------------------------------
    def _apply_resize(self, request: _Resize) -> None:
        """Dispatcher-side fleet change (serialized with the flushes)."""
        try:
            target = max(1, request.n_shards)
            while len(self._pool.shards) > target:
                shard = self._pool.remove_shard()  # already asked to stop
                self._retired.append(shard)
                with self._roster_lock:
                    roster = self._rosters.pop()
                    for fingerprint in roster.fingerprints():
                        self._on_roster_evict(fingerprint, None)
            while len(self._pool.shards) < target:
                shard = self._pool.add_shard()
                with self._roster_lock:
                    self._rosters.append(self._make_roster())
                with self._state_lock:
                    while len(self._stats.shards) <= shard.shard_id:
                        self._stats.shards.append(
                            ShardSnapshot(shard=len(self._stats.shards))
                        )
                    self._stats.shards[shard.shard_id] = ShardSnapshot(
                        shard=shard.shard_id
                    )
                    self._dead_shards.discard(shard.shard_id)
                collector = threading.Thread(
                    target=self._collect_loop, args=(shard,), daemon=True,
                    name=f"repro-serve-collector-{shard.shard_id}",
                )
                self._collectors.append(collector)
                collector.start()
                self._warm_start(shard.shard_id)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            request.error = exc
        finally:
            request.done.set()

    def _warm_start(self, shard_id: int) -> None:
        """Preload a fresh shard with the resident models it now owns.

        Only meaningful under the shared-memory transport: fingerprints
        held by *other* shards whose route moved to the new shard are
        re-published (one extra segment reference, zero matrix copies) and
        installed ahead of traffic, so scale-up does not serve its first
        queries from a cold factor cache.
        """
        if self._store is None:
            return
        n_shards = len(self._pool.shards)
        with self._roster_lock:
            resident: set[str] = set()
            for index, roster in enumerate(self._rosters):
                if index != shard_id:
                    resident.update(roster.fingerprints())
            moved = [fp for fp in resident
                     if shard_for_fingerprint(fp, n_shards) == shard_id]
            descriptors = []
            for fingerprint in moved:
                descriptor = self._store.acquire(fingerprint)
                if descriptor is None:
                    continue
                self._rosters[shard_id].insert(fingerprint, True)
                descriptors.append((fingerprint, descriptor))
        for fingerprint, descriptor in descriptors:
            self._pool.send(shard_id, ("preload", fingerprint, descriptor))
        if descriptors:
            with self._state_lock:
                self._stats.preloads += len(descriptors)

    # -- collectors ------------------------------------------------------------------
    #: how often an idle collector re-checks that its shard worker is alive
    _LIVENESS_INTERVAL = 0.5

    def _collect_loop(self, shard) -> None:
        shard_id = shard.shard_id
        responses = shard.response_q
        worker = shard.worker
        while True:
            try:
                message = responses.get(timeout=self._LIVENESS_INTERVAL)
            except queue.Empty:
                # a crashed worker (OOM-killed process, hard fault) sends no
                # response: fail its in-flight batches instead of letting the
                # futures — and their backpressure slots — hang forever
                if not worker.is_alive():
                    self._fail_shard_inflight(
                        shard_id, "shard worker died without responding"
                    )
                    self._release_dead_shard(shard)
                    if self._closed:
                        return
                continue
            kind = message[0]
            if kind == "stopped":
                with self._state_lock:
                    if self._shard_is_current(shard) or self._closed:
                        self._apply_shard_stats(message[1])
                return
            if kind == "preloaded":
                with self._state_lock:
                    if self._shard_is_current(shard):
                        self._apply_shard_stats(message[2])
                continue
            if kind == "preload-failed":
                # the next batch for the fingerprint re-ships it; nothing to
                # fail here (preloads carry no caller futures)
                continue
            if kind == "ok":
                _, batch_id, results, shard_stats = message
                # process shards ship JSON-safe dicts (no pickled results);
                # thread shards hand the MVNResult objects over directly
                results = [
                    MVNResult.from_dict(r) if isinstance(r, dict) else r
                    for r in results
                ]
                with self._state_lock:
                    entry = self._inflight.pop(batch_id, None)
                    if entry is None:
                        # the batch was already failed by the liveness check
                        # (response raced the worker's death); futures are
                        # resolved, slots released — nothing left to do
                        if self._shard_is_current(shard):
                            self._apply_shard_stats(shard_stats)
                        continue
                    requests, _, dispatched_at, lineage = entry
                    if self._shard_is_current(shard):
                        self._apply_shard_stats(shard_stats)
                    self._stats.completed += len(requests)
                    self._stats.queue_depth -= len(requests)
                batch_size = len(requests)
                for request, result in zip(requests, results):
                    result.details["serve"] = {
                        "shard": shard_id,
                        "batch_size": batch_size,
                        "batch_fill": batch_size / self.config.max_batch,
                        "queue_seconds": dispatched_at - request.enqueued,
                        # which batched-sweep schedule the shard's solver ran
                        # (micro-batches fuse into one (boxes x samples)
                        # sweep when the solver config allows it)
                        "fusion": result.details.get("fusion"),
                    }
                    if lineage is not None:
                        # how the updated model reached this shard: warm
                        # rank-k payload on the parent's shard, or a cold
                        # assemble+refactorize fallback
                        result.details["serve"]["lineage"] = dict(lineage)
                    self._resolve(request.future, result=result)
            else:  # "error"
                _, batch_id, detail = message
                with self._state_lock:
                    entry = self._inflight.pop(batch_id, None)
                    if entry is None:
                        continue  # already failed by the liveness check
                    requests = entry[0]
                    self._stats.failed += len(requests)
                    self._stats.queue_depth -= len(requests)
                error = ServeError(f"shard {shard_id} failed the batch: {detail}")
                for request in requests:
                    self._resolve(request.future, error=error)

    def _fail_shard_inflight(self, shard_id: int, detail: str) -> None:
        """Reject every in-flight batch assigned to a (dead) shard."""
        with self._state_lock:
            doomed = [batch_id for batch_id, entry in self._inflight.items()
                      if entry[1] == shard_id]
            batches = [self._inflight.pop(batch_id) for batch_id in doomed]
            count = sum(len(requests) for requests, *_ in batches)
            self._stats.failed += count
            self._stats.queue_depth -= count
        error = ServeError(f"shard {shard_id} failed the batch: {detail}")
        for requests, *_ in batches:
            for request in requests:
                self._resolve(request.future, error=error)

    def _shard_is_current(self, shard) -> bool:
        """Whether the shard still occupies its routing slot (not retired)."""
        shards = self._pool.shards
        return shard.shard_id < len(shards) and shards[shard.shard_id] is shard

    def _release_dead_shard(self, shard) -> None:
        """Drop a dead shard's segment references (once per death).

        The worker can no longer evict its models, so the broker releases
        every fingerprint its roster mirror holds — without this, a killed
        shard would pin its shared-memory segments until ``close()``.  The
        mirror is reset so later batches routed to the (dead) slot ship the
        covariance again rather than assume residency.
        """
        with self._state_lock:
            if shard.shard_id in self._dead_shards:
                return
            self._dead_shards.add(shard.shard_id)
        if not self._shard_is_current(shard):
            return
        with self._roster_lock:
            roster = self._rosters[shard.shard_id]
            self._rosters[shard.shard_id] = self._make_roster()
        for fingerprint in roster.fingerprints():
            self._on_roster_evict(fingerprint, None)

    def _apply_shard_stats(self, payload: dict) -> None:
        """Overwrite the shard's snapshot with its latest self-report."""
        snapshot = self._stats.shards[payload["shard"]]
        for field_name, value in payload.items():
            setattr(snapshot, field_name, value)

    def _resolve(self, future: Future, result=None, error=None) -> None:
        """Resolve one future (tolerating caller-side cancellation)."""
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except InvalidStateError:  # pragma: no cover - caller cancelled the future
            pass
        finally:
            self._slots.release()
