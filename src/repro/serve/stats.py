"""Serving statistics: queue depth, batch fill, per-shard cache hit rates,
latency quantiles.

The broker keeps one :class:`ServeStats` ledger (guarded by its own lock)
and every shard ships a small stats payload back with each batch response,
so :meth:`repro.serve.QueryBroker.stats` is always a consistent snapshot —
no cross-process polling.  The per-request view of the same numbers lands
in ``MVNResult.details["serve"]`` (shard id, batch size and fill, queue
time), following the same details/timings convention as the kernel-phase
attribution of :mod:`repro.core.pmvn`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LATENCY_WINDOW", "ServeStats", "ShardSnapshot", "latency_quantiles"]

#: the latency quantiles :class:`ServeStats` reports, in percent
LATENCY_QUANTILES = (50, 95, 99)

#: how many of the latest completed requests the latency quantiles cover
LATENCY_WINDOW = 4096


def latency_quantiles(seconds) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` of a window of per-request
    seconds (zeros for an empty window).

    >>> latency_quantiles([0.1, 0.2, 0.3])["p50"]
    0.2
    """
    values = np.percentile(seconds, LATENCY_QUANTILES) if len(seconds) else [0.0] * len(LATENCY_QUANTILES)
    return {f"p{q}": float(value) for q, value in zip(LATENCY_QUANTILES, values)}


@dataclass
class ShardSnapshot:
    """Last reported state of one shard's warm solver.

    Attributes
    ----------
    shard : int
        Shard index (the target of the consistent Sigma routing).
    batches, requests : int
        Micro-batches / individual requests executed by this shard.
    models : int
        Warm :class:`repro.solver.Model` objects currently held.
    factorize_count, cache_hits, cache_misses : int
        The shard solver's :class:`repro.batch.FactorCache` counters; a
        healthy shard factorizes once per distinct covariance and serves
        the rest from the warm model, so ``factorize_count`` should track
        the number of distinct Sigmas routed to the shard.
    redundant_sigmas : int
        Covariances the shard received while already holding the
        fingerprint.  Always ``0`` when the broker's roster mirror is
        working — a non-zero value is the duplicate-send bug surfacing.
    updates : int
        Rank-k up/down-dates the shard applied to a warm parent factor
        instead of factorizing the child covariance from scratch (the
        lineage warm path of ``Model.update``).
    """

    shard: int
    batches: int = 0
    requests: int = 0
    models: int = 0
    factorize_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    redundant_sigmas: int = 0
    updates: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests that reused a warm (already factorized) model."""
        if self.requests == 0:
            return 0.0
        return 1.0 - min(self.factorize_count, self.requests) / self.requests


@dataclass
class ServeStats:
    """Snapshot of a broker's serving counters.

    Attributes
    ----------
    submitted, completed, failed, rejected : int
        Request outcomes: every submission that passed validation counts in
        ``submitted`` and ends in exactly one of the other three, so
        ``submitted == completed + failed + rejected + queue_depth``;
        ``rejected`` counts submissions refused by backpressure
        (:class:`~repro.serve.broker.ServeOverloadedError`).
    batches : int
        Micro-batches dispatched to shards.
    queue_depth : int
        Requests currently submitted but not finished (the value the
        ``max_pending`` backpressure limit applies to).
    max_queue_depth : int
        High-water mark of ``queue_depth``.
    max_batch : int
        The configured micro-batch capacity (denominator of the fill ratio).
    sigma_sends : int
        Covariances actually shipped to shards (first arrival of a
        fingerprint at a shard, or re-arrival after roster eviction).
    sigma_skips : int
        Batches dispatched *without* re-shipping Sigma because the shard's
        roster mirror showed the model already resident — the
        duplicate-send fast path.
    sigma_bytes : int
        Total covariance bytes shipped (for the shared-memory transport
        this is bytes *published once per fingerprint*, not per shard —
        extra shards attach the same segment for free).
    preloads : int
        Warm-start shipments to freshly added shards (autoscaling).
    lineage_routes : int
        Batches for an updated model routed to the shard already holding
        the parent factor, shipping only the rank-k update payload.
    lineage_fallbacks : int
        Batches for an updated model that had to assemble and ship the
        full child covariance instead (parent not resident — e.g. its
        shard died or the roster evicted it).
    update_sends : int
        Rank-k update payloads shipped to shards.
    update_bytes : int
        Total update-matrix bytes shipped — compare with ``sigma_bytes``
        to see what the lineage path saves (``n*k`` vs ``n*n`` doubles).
    shards : list of ShardSnapshot
        Per-shard execution counters, in shard order.
    queue_seconds, service_seconds : dict
        ``{"p50", "p95", "p99"}`` quantiles, in seconds, over the latest
        ``LATENCY_WINDOW`` completed requests: the wait from ``submit`` to
        dispatch (the time a request's bucket was held included), and from
        dispatch to the shard's result (the batch's queue at the shard and
        its sweep).  Zeros until a request completes.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    batches: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
    max_batch: int = 0
    sigma_sends: int = 0
    sigma_skips: int = 0
    sigma_bytes: int = 0
    preloads: int = 0
    lineage_routes: int = 0
    lineage_fallbacks: int = 0
    update_sends: int = 0
    update_bytes: int = 0
    shards: list[ShardSnapshot] = field(default_factory=list)
    queue_seconds: dict = field(default_factory=lambda: latency_quantiles(()))
    service_seconds: dict = field(default_factory=lambda: latency_quantiles(()))

    @property
    def batch_fill_ratio(self) -> float:
        """Mean dispatched batch size as a fraction of ``max_batch``."""
        finished = self.completed + self.failed
        if self.batches == 0 or self.max_batch == 0:
            return 0.0
        return finished / self.batches / self.max_batch

    @property
    def mean_batch_size(self) -> float:
        """Mean number of requests per dispatched micro-batch."""
        finished = self.completed + self.failed
        return finished / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """A plain-dict rendering (what the benchmark JSON embeds)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "batches": self.batches,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "max_batch": self.max_batch,
            "sigma_sends": self.sigma_sends,
            "sigma_skips": self.sigma_skips,
            "sigma_bytes": self.sigma_bytes,
            "preloads": self.preloads,
            "lineage_routes": self.lineage_routes,
            "lineage_fallbacks": self.lineage_fallbacks,
            "update_sends": self.update_sends,
            "update_bytes": self.update_bytes,
            "mean_batch_size": self.mean_batch_size,
            "batch_fill_ratio": self.batch_fill_ratio,
            "shards": [
                {
                    "shard": s.shard,
                    "batches": s.batches,
                    "requests": s.requests,
                    "models": s.models,
                    "factorize_count": s.factorize_count,
                    "cache_hits": s.cache_hits,
                    "cache_misses": s.cache_misses,
                    "redundant_sigmas": s.redundant_sigmas,
                    "updates": s.updates,
                    "hit_rate": s.hit_rate,
                }
                for s in self.shards
            ],
            "queue_seconds": dict(self.queue_seconds),
            "service_seconds": dict(self.service_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict, max_batch: int = 0) -> "ServeStats":
        """Rebuild a snapshot from :meth:`as_dict` output (derived fields
        like the ratios are recomputed, not read).

        ``max_batch`` rides in the payload, so the round trip is lossless;
        the keyword survives only as a fallback for payloads written before
        the field existed (it must not silently zero a real limit — the
        gateway's ``stats`` op depends on the fill ratio surviving).
        """
        counters = {
            name: payload[name]
            for name in ("submitted", "completed", "failed", "rejected",
                         "batches", "queue_depth", "max_queue_depth")
        }
        for name in ("sigma_sends", "sigma_skips", "sigma_bytes", "preloads",
                     "lineage_routes", "lineage_fallbacks",
                     "update_sends", "update_bytes"):
            counters[name] = payload.get(name, 0)
        shard_fields = ("shard", "batches", "requests", "models",
                        "factorize_count", "cache_hits", "cache_misses")
        shards = [
            ShardSnapshot(
                redundant_sigmas=entry.get("redundant_sigmas", 0),
                updates=entry.get("updates", 0),
                **{name: entry[name] for name in shard_fields},
            )
            for entry in payload.get("shards", [])
        ]
        quantiles = {name: dict(payload.get(name) or latency_quantiles(()))
                     for name in ("queue_seconds", "service_seconds")}
        return cls(max_batch=payload.get("max_batch", max_batch),
                   shards=shards, **counters, **quantiles)
