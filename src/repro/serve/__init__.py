"""repro.serve: concurrent query serving on sharded warm solvers.

The ROADMAP's north star is a system serving MVN probability queries to
many concurrent callers.  The session API (:mod:`repro.solver`) already
amortizes factorization *within* one caller; this subpackage amortizes it
*across* callers:

* :class:`~repro.serve.broker.QueryBroker` — an async-friendly
  ``submit()``/Future front door that **micro-batches** requests sharing a
  covariance (keyed by its factor-cache fingerprint) into single
  ``probability_batch`` sweeps, each formed when its shard is free for it,
* :class:`~repro.serve.pool.ShardPool` — warm solver **shards** (threads
  or ``multiprocessing`` workers), with consistent Sigma-to-shard routing
  so every distinct covariance is factorized once per shard,
* :class:`~repro.serve.config.ServeConfig` /
  :class:`~repro.serve.stats.ServeStats` — the serving knobs
  (batch window, backpressure limit, worker mode) and the observability
  counters (queue depth, batch-fill ratio, per-shard hit rate, queue-wait
  and service-time quantiles).

Served results are **bit-identical** to direct
:meth:`repro.solver.Model.probability` calls with the same seed — batching
and sharding change the schedule, never the estimator.  See
``docs/serving.md`` for the architecture and
``benchmarks/bench_serving_throughput.py`` for the throughput gate.

The distributed layer lives in :mod:`repro.serve.net`: a JSON-lines
asyncio gateway (``ServeGateway``/``ServeClient``), zero-copy
shared-memory Sigma transport (``SharedSigmaStore``, selected via
``ServeConfig.sigma_transport``), network-cost-aware model placement
(``NodePool``) and queue-depth autoscaling (``Autoscaler`` over
:meth:`QueryBroker.resize`).

>>> import numpy as np
>>> from repro.serve import QueryBroker, ServeConfig
>>> sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
>>> config = ServeConfig(n_shards=1, worker_mode="thread")
>>> with QueryBroker(config, "dense") as broker:
...     future = broker.submit([-np.inf, -np.inf], [0.0, 0.0],
...                            sigma, n_samples=2000, rng=0)
...     result = future.result()
>>> abs(result.probability - 1/3) < 0.02
True
>>> result.details["serve"]["shard"]
0
"""

from repro.serve.broker import (
    QueryBroker,
    ServeError,
    ServeOverloadedError,
    SigmaUpdate,
)
from repro.serve.config import ServeConfig
from repro.serve.pool import ShardPool, shard_for_fingerprint
from repro.serve.stats import ServeStats, ShardSnapshot

__all__ = [
    "QueryBroker",
    "ServeConfig",
    "ServeStats",
    "ShardSnapshot",
    "ShardPool",
    "ServeError",
    "ServeOverloadedError",
    "SigmaUpdate",
    "shard_for_fingerprint",
]
