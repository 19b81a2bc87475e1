"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time
from multiprocessing import shared_memory
from types import SimpleNamespace

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


# -- serving: hold a thread shard busy, check a broker's books -------------------------

@pytest.fixture
def shard_gate(monkeypatch):
    """Hold thread shards inside ``Model.probability_batch`` on demand.

    A batch run with seed ``shard_gate.seed`` sets ``shard_gate.entered``
    and blocks until ``shard_gate.release`` is set, so a test keeps a
    shard busy for exactly as long as it needs; other seeds run freely.
    """
    from repro.solver import Model

    gate = SimpleNamespace(seed=9_999, entered=threading.Event(), release=threading.Event())
    original = Model.probability_batch

    def gated(self, boxes, **kwargs):
        if kwargs.get("rng") == gate.seed:
            gate.entered.set()
            gate.release.wait(30)
        return original(self, boxes, **kwargs)

    monkeypatch.setattr(Model, "probability_batch", gated)
    yield gate
    gate.release.set()


def _held_requests(broker) -> int:
    """Requests a broker accepted but has not sent to a shard yet."""
    with broker._state_lock:
        sent = sum(len(entry[0]) for entry in broker._inflight.values())
        return broker._stats.queue_depth - sent


def _fill_shard(broker, a, b, sigma, *, rng, n_samples) -> list:
    """Leave the shard that owns ``sigma`` no room for another batch.

    Submits one request per batch the broker lets a shard have in flight,
    each under its own batch key, and waits until all of them are sent;
    later requests for that shard are then held.  Returns their futures.
    """
    from repro.serve.broker import _SHARD_DEPTH

    futures = [broker.submit(a, b, sigma, rng=rng, n_samples=n_samples + i)
               for i in range(_SHARD_DEPTH)]
    deadline = time.perf_counter() + 30
    while _held_requests(broker):
        assert time.perf_counter() < deadline, "the filling batches never left the broker"
        time.sleep(0.002)
    return futures


def _check_settled(broker, futures) -> None:
    """The held-request invariants of a closed broker.

    Every future resolved, every ``max_pending`` slot released, the counters
    conserved (``submitted == completed + failed + rejected``) and no
    shared-memory segment of the broker's store survives.
    """
    assert broker.closed
    assert all(future.done() for future in futures)
    stats = broker.stats()
    assert stats.queue_depth == 0
    assert stats.submitted == stats.completed + stats.failed + stats.rejected
    slots = broker.config.max_pending
    taken = [broker._slots.acquire(blocking=False) for _ in range(slots + 1)]
    assert taken == [True] * slots + [False]
    for _ in range(slots):
        broker._slots.release()
    store = broker.sigma_store
    if store is not None:
        assert not store.live_names()
        for name in store.created_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name).close()


@pytest.fixture
def serve_books():
    """A broker's books: ``held(broker)`` counts the requests it holds back
    from its shards, ``fill(broker, a, b, sigma, rng=, n_samples=)`` leaves
    a shard no room, ``settled(broker, futures)`` checks a closed broker's
    invariants."""
    return SimpleNamespace(held=_held_requests, fill=_fill_shard, settled=_check_settled)
