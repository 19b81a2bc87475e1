"""Sharded warm-solver pool: the execution layer of :mod:`repro.serve`.

Each **shard** owns one long-lived :class:`repro.solver.MVNSolver` (its own
runtime, factor cache and pooled sweep workspaces) plus a small LRU of warm
:class:`repro.solver.Model` objects keyed by covariance fingerprint.  The
broker routes every covariance to exactly one shard (consistent hashing of
the fingerprint), so each distinct Sigma is factorized once *per shard* —
never once per request — and all later queries against it run against the
warm model.

Shards run either as daemon **threads** (default on single-core machines;
NumPy/BLAS release the GIL inside the heavy kernels) or as
``multiprocessing`` **processes** (true core isolation).  Both modes speak
the same queue protocol, executed by the same top-level loop
(:func:`shard_serve_loop`), so results are bit-identical across modes — the
worker runs exactly the :meth:`repro.solver.Model.probability_batch` code
path a direct caller would.

Protocol (one request/response queue pair per shard):

* ``("batch", batch_id, fingerprint, sigma_or_None, boxes, means,
  n_samples, qmc, seed, target_error, max_samples)`` — evaluate a
  micro-batch; ``sigma`` is shipped only the first time the broker routes
  that fingerprint to the shard; ``target_error`` / ``max_samples`` drive
  the per-box adaptive refinement exactly as a direct
  :meth:`repro.solver.Model.probability_batch` call would.
* ``("stop",)`` — close the solver and exit.

Responses:

* ``("ok", batch_id, results, stats_dict)`` — one
  :class:`repro.mvn.result.MVNResult` per box, in box order, plus the
  shard's counters (see :class:`repro.serve.stats.ShardSnapshot`).
  Process-mode shards serialize each result through
  :meth:`repro.mvn.result.MVNResult.to_dict`, so results cross the process
  boundary as JSON-safe dicts instead of pickled objects (the broker
  restores them with ``MVNResult.from_dict``).
* ``("error", batch_id, message)`` — the whole batch failed.
* ``("stopped", stats_dict)`` — acknowledgement of ``("stop",)``.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from collections import OrderedDict

import numpy as np

__all__ = ["ModelRoster", "ShardPool", "is_lineage_payload", "lineage_payload",
           "shard_for_fingerprint", "shard_serve_loop"]


def lineage_payload(parent_fingerprint: str, u: np.ndarray, downdate: bool) -> tuple:
    """The rank-k update payload that rides in a batch message's sigma slot.

    The warm lineage path of online updates: instead of the full ``n x n``
    child covariance, the broker ships the parent's fingerprint plus the
    ``n x k`` update matrix, and the shard up/down-dates its already-warm
    parent factor (``O(n^2 k)`` work, ``n*k`` doubles on the wire).
    """
    return ("lineage", str(parent_fingerprint),
            np.ascontiguousarray(np.asarray(u, dtype=np.float64)), bool(downdate))


def is_lineage_payload(obj) -> bool:
    """Whether a batch message's sigma slot carries a rank-k update payload."""
    return isinstance(obj, tuple) and len(obj) == 4 and obj[0] == "lineage"


class ModelRoster:
    """The warm-model LRU rule of a shard, as one shared piece of code.

    The sigma-shipping protocol depends on the broker predicting exactly
    which fingerprints a shard still holds: the worker keeps its warm
    :class:`repro.solver.Model` objects in one of these, and the broker
    keeps a mirror (storing ``True``) that it updates in dispatch order.
    Both sides run the *same* get/insert/evict rule below, so the mirror
    cannot drift by construction.

    An optional ``on_evict(fingerprint, value)`` callback observes every
    capacity eviction — the shared-memory transport hooks it on both
    sides: the broker mirror releases the segment refcount, the worker
    schedules its segment handle for closing.

    >>> roster = ModelRoster(capacity=2)
    >>> roster.get("a") is None
    True
    >>> roster.insert("a", 1); roster.insert("b", 2); roster.insert("c", 3)
    >>> len(roster), roster.get("a"), roster.get("c")
    (2, None, 3)
    """

    def __init__(self, capacity: int, on_evict=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.on_evict = on_evict
        self._entries: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str):
        """The entry for ``fingerprint`` (refreshed as most-recent), or None."""
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    def insert(self, fingerprint: str, value) -> None:
        """Add a fingerprint, evicting least-recently-used beyond capacity."""
        self._entries[fingerprint] = value
        while len(self._entries) > self.capacity:
            evicted_fp, evicted_value = self._entries.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(evicted_fp, evicted_value)

    def fingerprints(self) -> list[str]:
        """The resident fingerprints, least-recently-used first."""
        return list(self._entries)


def shard_for_fingerprint(fingerprint: str, n_shards: int) -> int:
    """Deterministic fingerprint -> shard routing (consistent across runs).

    The fingerprint is already a cryptographic content hash
    (:func:`repro.batch.cache.sigma_fingerprint`), so its leading bits are
    uniformly distributed and a modulo is an unbiased router.

    >>> shard_for_fingerprint("00ff" * 16, 1)
    0
    >>> 0 <= shard_for_fingerprint("a3" * 32, 4) < 4
    True
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return int(str(fingerprint)[:16], 16) % n_shards


def shard_serve_loop(shard_id, solver_config, n_workers, policy, cache_entries,
                     request_q, response_q, serialize_results: bool = False) -> None:
    """The shard worker: one warm solver, serving batches until ``("stop",)``.

    Top-level (not a closure/method) so ``multiprocessing`` can spawn it;
    thread mode runs the identical function in-process.  With
    ``serialize_results`` (process mode) each result ships as its JSON-safe
    :meth:`~repro.mvn.result.MVNResult.to_dict` payload.

    The ``sigma`` slot of a batch message is either an ndarray (inline
    transport), a shared-memory descriptor tuple (the worker attaches the
    segment and builds the model zero-copy on the shared buffer), a
    :func:`lineage_payload` tuple (rank-k up/down-date of the resident
    parent model — online updates' warm path), or ``None`` when the model
    is already resident — the roster mirror's fast path means a resident
    fingerprint is *never* re-shipped.
    """
    # imported here so a spawned process pays its import cost in the worker
    from repro.serve.net.transport import (
        SegmentKeeper,
        attach_descriptor,
        is_shm_descriptor,
    )
    from repro.solver import MVNSolver

    solver = MVNSolver(solver_config, n_workers=n_workers, policy=policy,
                       cache_entries=cache_entries)
    segments = SegmentKeeper()
    # the evicted Model is still referenced by the eviction call frame, so
    # its segment close is deferred; segments.sweep() below retries once the
    # view is actually gone
    models = ModelRoster(cache_entries,
                         on_evict=lambda fp, _model: segments.drop(fp))
    batches = 0
    requests = 0
    redundant_sigmas = 0
    updates = 0

    def stats() -> dict:
        cache = solver.cache
        return {
            "shard": shard_id,
            "batches": batches,
            "requests": requests,
            "models": len(models),
            "factorize_count": cache.factorize_count if cache else 0,
            "cache_hits": cache.hits if cache else 0,
            "cache_misses": cache.misses if cache else 0,
            "redundant_sigmas": redundant_sigmas,
            "updates": updates,
        }

    def resident_model(fingerprint, sigma):
        nonlocal redundant_sigmas, updates
        model = models.get(fingerprint)
        if model is not None:
            if sigma is not None:
                # the broker's mirror should have elided this ship; count
                # it so the duplicate-send accounting surfaces the bug
                # instead of silently re-copying megabytes
                redundant_sigmas += 1
            return model
        if sigma is None:
            raise RuntimeError(
                f"shard {shard_id} received fingerprint {fingerprint[:12]}... "
                "without its covariance (routing bug)"
            )
        if is_lineage_payload(sigma):
            # warm online update: rank-k up/down-date of the resident parent
            # factor instead of a from-scratch factorization of the child
            _, parent_fp, u, downdate = sigma
            parent = models.get(parent_fp)
            if parent is None:
                raise RuntimeError(
                    f"shard {shard_id} received a rank-{np.asarray(u).shape[1]} "
                    f"update for parent {str(parent_fp)[:12]}... but the parent "
                    "model is not resident (routing bug)"
                )
            model = parent.update(u, downdate=downdate)
            updates += 1
            models.insert(fingerprint, model)
            return model
        if is_shm_descriptor(sigma):
            sigma_arr, segment = attach_descriptor(sigma)
            segments.adopt(fingerprint, segment)
        else:
            sigma_arr = np.asarray(sigma, dtype=np.float64)
        model = solver.model(sigma_arr)
        models.insert(fingerprint, model)
        return model

    try:
        while True:
            message = request_q.get()
            segments.sweep()
            if message[0] == "stop":
                response_q.put(("stopped", stats()))
                return
            if message[0] == "preload":
                # autoscaling warm-start: install the model ahead of traffic
                _, fingerprint, sigma = message
                try:
                    resident_model(fingerprint, sigma)
                    response_q.put(("preloaded", fingerprint, stats()))
                except Exception as exc:  # noqa: BLE001 - report, keep serving
                    response_q.put(("preload-failed", fingerprint,
                                    f"{type(exc).__name__}: {exc}"))
                continue
            (_, batch_id, fingerprint, sigma, boxes, means, n_samples, qmc,
             seed, target_error, max_samples) = message
            try:
                model = resident_model(fingerprint, sigma)
                results = model.probability_batch(
                    boxes, means=means, n_samples=n_samples, qmc=qmc, rng=seed,
                    target_error=target_error, max_samples=max_samples,
                )
                batches += 1
                requests += len(boxes)
                if serialize_results:
                    results = [result.to_dict() for result in results]
                response_q.put(("ok", batch_id, results, stats()))
            except Exception as exc:  # noqa: BLE001 - forwarded to the caller's Future
                response_q.put(("error", batch_id, f"{type(exc).__name__}: {exc}"))
    finally:
        solver.close()
        # drop the warm models first so their segment views die with them;
        # close_all tolerates any view the GC has not collected yet (the
        # process exit — or the broker's unlink — reclaims the segment)
        models = None
        segments.close_all()


class _Shard:
    """One shard's worker plus its request/response queues."""

    def __init__(self, shard_id: int, mode: str, args: tuple) -> None:
        self.shard_id = shard_id
        self.mode = mode
        if mode == "process":
            # never plain fork: brokers live in multithreaded processes
            # (dispatcher/collector threads, callers' request handlers), and
            # forking with live threads can deadlock the child on inherited
            # locks.  forkserver forks from a clean single-threaded server;
            # platforms without it (e.g. Windows/macOS defaults) spawn.
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "forkserver" if "forkserver" in methods else "spawn"
            )
            self.request_q = ctx.Queue()
            self.response_q = ctx.Queue()
            self.worker = ctx.Process(
                target=shard_serve_loop,
                # serialize_results=True: results cross the process boundary
                # as JSON-safe MVNResult.to_dict payloads, not pickled objects
                args=(shard_id, *args, self.request_q, self.response_q, True),
                daemon=True,
                name=f"repro-serve-shard-{shard_id}",
            )
        elif mode == "thread":
            self.request_q = queue.Queue()
            self.response_q = queue.Queue()
            self.worker = threading.Thread(
                target=shard_serve_loop,
                args=(shard_id, *args, self.request_q, self.response_q),
                daemon=True,
                name=f"repro-serve-shard-{shard_id}",
            )
        else:  # pragma: no cover - ServeConfig already validated the mode
            raise ValueError(f"unknown worker mode {mode!r}")

    def start(self) -> None:
        self.worker.start()

    def join(self, timeout: float | None) -> None:
        self.worker.join(timeout)
        if self.mode == "process":
            if self.worker.is_alive():  # pragma: no cover - crash containment
                self.worker.terminate()
                self.worker.join(1.0)
            # release the queue feeder threads/fds promptly
            self.request_q.close()
            self.response_q.close()


class ShardPool:
    """The set of shard workers behind one :class:`repro.serve.QueryBroker`.

    Parameters mirror :class:`repro.serve.ServeConfig`; the broker builds
    the pool from its config and owns its lifecycle (``start`` before the
    dispatcher runs, ``join`` after every shard acknowledged ``("stop",)``).
    """

    def __init__(self, n_shards: int, solver_config, *, worker_mode: str,
                 n_workers: int = 1, policy: str = "prio",
                 cache_entries: int = 8) -> None:
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process' here, got {worker_mode!r} "
                "(resolve 'auto' via ServeConfig.resolved_worker_mode first)"
            )
        self.worker_mode = worker_mode
        self._shard_args = (solver_config, n_workers, policy, cache_entries)
        self.shards = [_Shard(i, worker_mode, self._shard_args)
                       for i in range(n_shards)]

    def __len__(self) -> int:
        return len(self.shards)

    def add_shard(self) -> _Shard:
        """Grow the pool by one started shard (autoscaling path).

        The new shard joins the routing domain immediately: callers must
        only invoke this from the broker's dispatcher thread, which owns
        routing (``route`` results must not change under a flush).
        """
        shard = _Shard(len(self.shards), self.worker_mode, self._shard_args)
        self.shards.append(shard)
        shard.start()
        return shard

    def remove_shard(self) -> _Shard:
        """Shrink the pool by its tail shard; returns the retired shard.

        The shard leaves the routing domain at once but keeps draining its
        queued batches; the caller asks it to stop and joins it later
        (its collector sees ``("stopped", ...)`` after the drain).
        """
        if len(self.shards) <= 1:
            raise ValueError("cannot remove the last shard")
        shard = self.shards.pop()
        shard.request_q.put(("stop",))
        return shard

    def start(self) -> None:
        """Launch every shard worker (thread or process)."""
        for shard in self.shards:
            shard.start()

    def route(self, fingerprint: str) -> int:
        """The shard index that owns ``fingerprint``."""
        return shard_for_fingerprint(fingerprint, len(self.shards))

    def send(self, shard_id: int, message: tuple) -> None:
        """Enqueue one protocol message on a shard's request queue."""
        self.shards[shard_id].request_q.put(message)

    def stop(self) -> None:
        """Ask every shard to shut down (does not wait; see :meth:`join`)."""
        for shard in self.shards:
            shard.request_q.put(("stop",))

    def join(self, timeout: float | None = None) -> None:
        """Wait for every worker to exit (stragglers are terminated)."""
        for shard in self.shards:
            shard.join(timeout)
