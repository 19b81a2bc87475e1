"""Tests for the concurrent query-serving subsystem (`repro.serve`).

Five properties pin the design:

* **parity** — served results are bit-identical to direct
  `Model.probability` calls with the same seed, for every kernel backend
  and both factor methods (batching/sharding change the schedule, never
  the estimator);
* **routing** — Sigma-to-shard routing is a deterministic function of the
  covariance *content*, so equal matrices (any dtype/layout/object) warm
  the same shard;
* **micro-batching** — requests sharing a batch key coalesce into one
  `probability_batch` sweep, also when they arrive apart while their shard
  is busy; different keys never share a sweep;
* **backpressure** — `max_pending` is a hard cap: at the limit, `submit`
  blocks or (with `timeout=0`) raises `ServeOverloadedError`;
* **lifecycle** — `close()` drains every submitted future, stops the
  shards (thread and process mode) and makes later submissions fail fast.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.batch.cache import sigma_fingerprint
from repro.core.kernel_backend import available_backends
from repro.serve import (
    QueryBroker,
    ServeConfig,
    ServeError,
    ServeOverloadedError,
    shard_for_fingerprint,
)
from repro.solver import MVNSolver, SolverConfig


def _spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _boxes(n: int, count: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    return [(np.full(n, -np.inf), rng.uniform(0.5, 2.5, n)) for _ in range(count)]


@pytest.fixture
def thread_broker():
    """A small all-defaults thread-mode broker, closed after the test."""
    broker = QueryBroker(
        ServeConfig(n_shards=2, worker_mode="thread", max_batch=8, batch_window=0.005),
        SolverConfig(method="dense", n_samples=200),
    )
    yield broker
    broker.close()


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.n_shards >= 1
        assert config.resolved_worker_mode() in ("thread", "process")

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_shards": 0}, {"max_batch": 0}, {"max_pending": -1},
         {"batch_window": -0.1}, {"worker_mode": "fibers"}, {"cache_entries": 0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_explicit_mode_is_kept(self):
        assert ServeConfig(worker_mode="thread").resolved_worker_mode() == "thread"
        assert ServeConfig(worker_mode="process").resolved_worker_mode() == "process"

    def test_broker_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            QueryBroker(config={"n_shards": 2})
        with pytest.raises(TypeError):
            QueryBroker(solver_config=42)


class TestServedParity:
    """Served results == direct Model.probability, bit for bit."""

    @pytest.mark.parametrize("method", ["dense", "tlr"])
    def test_parity_per_method(self, method):
        sigma = _spd(12, seed=3)
        boxes = _boxes(12, 6)
        solver_config = SolverConfig(method=method, n_samples=150, tile_size=4)
        with QueryBroker(ServeConfig(n_shards=2, worker_mode="thread"),
                         solver_config) as broker:
            futures = [broker.submit(a, b, sigma, rng=5) for a, b in boxes]
            served = [future.result(timeout=60) for future in futures]
        with MVNSolver(solver_config) as solver:
            model = solver.model(sigma)
            direct = [model.probability(a, b, rng=5) for a, b in boxes]
        for served_result, direct_result in zip(served, direct):
            assert served_result.probability == direct_result.probability
            assert served_result.error == direct_result.error
            assert served_result.method == direct_result.method

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_parity_per_backend(self, backend):
        sigma = _spd(10, seed=4)
        boxes = _boxes(10, 4)
        solver_config = SolverConfig(method="dense", n_samples=120, backend=backend)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         solver_config) as broker:
            served = [broker.submit(a, b, sigma, rng=2).result(timeout=60)
                      for a, b in boxes]
        with MVNSolver(solver_config) as solver:
            model = solver.model(sigma)
            for (a, b), served_result in zip(boxes, served):
                direct = model.probability(a, b, rng=2)
                assert served_result.probability == direct.probability
                assert served_result.error == direct.error

    def test_parity_with_means_and_overrides(self, thread_broker):
        sigma = _spd(8, seed=6)
        mean = np.linspace(-0.5, 0.5, 8)
        a, b = _boxes(8, 1)[0]
        served = thread_broker.submit(
            a, b, sigma, mean=mean, n_samples=90, qmc="halton", rng=1
        ).result(timeout=60)
        with MVNSolver(SolverConfig(method="dense", n_samples=200)) as solver:
            direct = solver.model(sigma, mean=mean).probability(
                a, b, n_samples=90, qmc="halton", rng=1
            )
        assert served.probability == direct.probability
        assert served.error == direct.error
        assert served.n_samples == 90

    def test_scalar_mean_matches_vector_mean(self, thread_broker):
        sigma = _spd(6, seed=7)
        a, b = _boxes(6, 1)[0]
        scalar = thread_broker.submit(a, b, sigma, mean=0.25, rng=3).result(timeout=60)
        vector = thread_broker.submit(
            a, b, sigma, mean=np.full(6, 0.25), rng=3
        ).result(timeout=60)
        assert scalar.probability == vector.probability


class TestRouting:
    def test_routing_is_deterministic(self):
        fingerprint = sigma_fingerprint(_spd(6))
        picks = {shard_for_fingerprint(fingerprint, 4) for _ in range(10)}
        assert len(picks) == 1
        assert 0 <= picks.pop() < 4

    def test_routing_covers_shards(self):
        """Many distinct fingerprints must spread over all shards."""
        hits = {
            shard_for_fingerprint(sigma_fingerprint(_spd(4, seed=seed)), 3)
            for seed in range(24)
        }
        assert hits == {0, 1, 2}

    def test_single_shard_routes_everything_to_zero(self):
        fingerprint = sigma_fingerprint(_spd(5))
        assert shard_for_fingerprint(fingerprint, 1) == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_fingerprint("ab" * 32, 0)

    def test_equal_content_routes_to_one_shard(self, thread_broker):
        """Same values in different objects/dtypes/layouts: one warm shard,
        one factorization."""
        sigma32 = _spd(9, seed=8).astype(np.float32)
        sigma64 = sigma32.astype(np.float64)
        variants = [sigma64, sigma64.copy(), sigma32, np.asfortranarray(sigma64)]
        a, b = _boxes(9, 1)[0]
        for variant in variants:
            thread_broker.submit(a, b, variant, rng=0).result(timeout=60)
        stats = thread_broker.stats()
        active = [s for s in stats.shards if s.requests > 0]
        assert len(active) == 1
        assert active[0].factorize_count == 1
        assert active[0].models == 1


class TestMicroBatching:
    def test_same_key_requests_share_a_sweep(self):
        sigma = _spd(8, seed=9)
        boxes = _boxes(8, 6)
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_batch=16, batch_window=0.25)
        with QueryBroker(config, SolverConfig(method="dense", n_samples=100)) as broker:
            futures = [broker.submit(a, b, sigma, rng=0) for a, b in boxes]
            results = [future.result(timeout=60) for future in futures]
        sizes = {result.details["serve"]["batch_size"] for result in results}
        assert sizes == {6}
        assert {result.details["serve"]["shard"] for result in results} == {0}
        stats = broker.stats()
        assert stats.batches == 1
        assert stats.mean_batch_size == pytest.approx(6.0)
        assert 0.0 < stats.batch_fill_ratio <= 1.0

    def test_different_seeds_never_share_a_sweep(self):
        """The batch key includes the seed: mixing seeds in one sweep would
        silently change every estimate (all boxes of a batched sweep draw
        from the batch rng)."""
        sigma = _spd(8, seed=10)
        a, b = _boxes(8, 1)[0]
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_batch=16, batch_window=0.05)
        with QueryBroker(config, SolverConfig(method="dense", n_samples=100)) as broker:
            futures = [broker.submit(a, b, sigma, rng=seed) for seed in range(4)]
            results = [future.result(timeout=60) for future in futures]
        assert all(result.details["serve"]["batch_size"] == 1 for result in results)
        assert broker.stats().batches == 4

    def test_qmc_spellings_share_a_sweep_and_unknown_fails_at_submit(self):
        """QMC names join the batch key canonicalized: spellings of one
        sequence share a sweep, and an unknown name never reaches a shard."""
        sigma = _spd(8, seed=12)
        a, b = _boxes(8, 1)[0]
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_batch=16, batch_window=0.25)
        with QueryBroker(config, SolverConfig(method="dense", n_samples=100)) as broker:
            with pytest.raises(ValueError, match="unknown QMC sequence 'nope'"):
                broker.submit(a, b, sigma, rng=0, qmc="nope")
            futures = [broker.submit(a, b, sigma, rng=0, qmc=name)
                       for name in ("richtmyer", "Richtmyer", "lattice")]
            results = [future.result(timeout=60) for future in futures]
        assert {result.details["serve"]["batch_size"] for result in results} == {3}
        assert len({result.probability for result in results}) == 1
        stats = broker.stats()
        assert (stats.batches, stats.failed, stats.submitted) == (1, 0, 3)

    def test_max_batch_splits_oversized_buckets(self):
        sigma = _spd(6, seed=11)
        boxes = _boxes(6, 7)
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_batch=3, batch_window=0.2)
        with QueryBroker(config, SolverConfig(method="dense", n_samples=80)) as broker:
            futures = [broker.submit(a, b, sigma, rng=0) for a, b in boxes]
            results = [future.result(timeout=60) for future in futures]
        sizes = sorted(result.details["serve"]["batch_size"] for result in results)
        assert len(sizes) == 7 and max(sizes) <= 3
        stats = broker.stats()
        assert stats.completed == 7
        assert stats.batches >= 3

    def test_backlog_coalesces_even_with_zero_window(self, monkeypatch):
        """A queued-up backlog must micro-batch no matter how small the
        batch window: the window bounds dispatcher idling, not batch fill.
        (Regression: the dispatcher used to ingest one request per loop
        iteration and flush expired buckets in between, so with
        batch_window=0 every request became a singleton batch.)"""
        release = threading.Event()
        original = QueryBroker._dispatch_loop

        def held_back(self):
            release.wait(10)
            original(self)

        monkeypatch.setattr(QueryBroker, "_dispatch_loop", held_back)
        sigma = _spd(8, seed=21)
        boxes = _boxes(8, 8)
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_batch=64, batch_window=0.0)
        broker = QueryBroker(config, SolverConfig(method="dense", n_samples=100))
        try:
            # everything queues before the dispatcher wakes up...
            futures = [broker.submit(a, b, sigma, rng=0) for a, b in boxes]
            release.set()
            results = [future.result(timeout=60) for future in futures]
        finally:
            release.set()
            broker.close()
        # ...and the whole backlog lands in one probability_batch sweep
        assert broker.stats().batches == 1
        assert {result.details["serve"]["batch_size"] for result in results} == {8}

    def test_singles_behind_a_busy_shard_share_one_sweep(self, shard_gate, serve_books):
        """Requests that arrive while their shard is busy wait for it in
        one bucket and share its next sweep, however far apart they come.
        (The dispatcher used to queue each bucket behind the busy shard
        when its window ran out, so k spaced singles became k batches.)"""
        sigma = _spd(8, seed=22)
        boxes = _boxes(8, 4, seed=6)
        window = 0.01
        solver_config = SolverConfig(method="dense", n_samples=100)
        broker = QueryBroker(ServeConfig(n_shards=1, worker_mode="thread", max_batch=16,
                                         batch_window=window), solver_config)
        try:
            # the first blocker runs (held at the gate), the rest wait in the
            # shard's queue
            blockers = serve_books.fill(broker, *boxes[0], sigma, rng=shard_gate.seed, n_samples=50)
            assert shard_gate.entered.wait(30)
            futures = []
            for a, b in boxes:
                futures.append(broker.submit(a, b, sigma, rng=0))
                time.sleep(3 * window)
            assert serve_books.held(broker) == len(boxes)
            shard_gate.release.set()
            results = [future.result(timeout=60) for future in futures]
            for blocker in blockers:
                blocker.result(timeout=60)
        finally:
            shard_gate.release.set()
            broker.close()
        assert [result.details["serve"]["batch_size"] for result in results] == [len(boxes)] * 4
        assert broker.stats().batches == len(blockers) + 1
        with MVNSolver(solver_config) as solver:
            model = solver.model(sigma)
            for (a, b), served in zip(boxes, results):
                direct = model.probability(a, b, rng=0)
                assert served.probability == direct.probability
                assert served.error == direct.error
        serve_books.settled(broker, blockers + futures)

    def test_concurrent_submitters_settle(self, serve_books):
        """More submitting threads than cores and a tiny switch interval:
        no wake-up is lost (every future resolves in time), the counters
        conserve and every answer equals the direct one."""
        sigmas = [_spd(6, seed=seed) for seed in (70, 71, 72)]
        boxes = _boxes(6, 4, seed=8)
        solver_config = SolverConfig(method="dense", n_samples=64)
        broker = QueryBroker(ServeConfig(n_shards=2, worker_mode="thread", max_batch=4,
                                         max_pending=16, batch_window=0.0005), solver_config)
        submitted, lock = [], threading.Lock()

        def submitter(index: int) -> None:
            for step in range(10):
                sigma_index, (a, b), seed = (index + step) % 3, boxes[step % 4], step % 2
                future = broker.submit(a, b, sigmas[sigma_index], rng=seed)
                with lock:
                    submitted.append((sigma_index, a, b, seed, future))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(index,)) for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            results = [entry[-1].result(timeout=60) for entry in submitted]
        finally:
            sys.setswitchinterval(previous)
            broker.close()
        serve_books.settled(broker, [entry[-1] for entry in submitted])
        assert broker.stats().completed == 60
        with MVNSolver(solver_config) as solver:
            models = [solver.model(sigma) for sigma in sigmas]
            for (sigma_index, a, b, seed, _), served in zip(submitted, results):
                direct = models[sigma_index].probability(a, b, rng=seed)
                assert served.probability == direct.probability

    def test_serve_details_stamped(self, thread_broker):
        sigma = _spd(5, seed=12)
        a, b = _boxes(5, 1)[0]
        result = thread_broker.submit(a, b, sigma, rng=0).result(timeout=60)
        serve_details = result.details["serve"]
        assert set(serve_details) == {"shard", "batch_size", "batch_fill",
                                      "queue_seconds", "fusion"}
        assert serve_details["fusion"] in ("fused", "interleaved")
        assert serve_details["queue_seconds"] >= 0.0
        # the batched-path metadata is preserved alongside
        assert result.details["batch_size"] == serve_details["batch_size"]


class TestBackpressure:
    def test_overload_raises_with_zero_timeout(self):
        sigma = _spd(6, seed=13)
        a, b = _boxes(6, 1)[0]
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_pending=2, max_batch=2, batch_window=0.5)
        broker = QueryBroker(config, SolverConfig(method="dense", n_samples=20_000))
        try:
            broker.submit(a, b, sigma, rng=0, timeout=0)
            broker.submit(a, b, sigma, rng=1, timeout=0)
            with pytest.raises(ServeOverloadedError, match="queue is full"):
                broker.submit(a, b, sigma, rng=2, timeout=0)
            assert broker.stats().rejected == 1
        finally:
            broker.close()
        # the two accepted requests still completed on close, and the
        # rejected one counts as submitted: the counters conserve
        stats = broker.stats()
        assert (stats.submitted, stats.completed, stats.rejected) == (3, 2, 1)

    def test_blocking_submit_waits_for_capacity(self):
        sigma = _spd(6, seed=14)
        a, b = _boxes(6, 1)[0]
        config = ServeConfig(n_shards=1, worker_mode="thread",
                             max_pending=1, max_batch=1, batch_window=0.0)
        with QueryBroker(config, SolverConfig(method="dense", n_samples=500)) as broker:
            futures = []
            # more submissions than capacity: each blocks until the previous
            # request finished, and all of them eventually succeed
            for seed in range(4):
                futures.append(broker.submit(a, b, sigma, rng=seed, timeout=30))
            results = [future.result(timeout=60) for future in futures]
        assert len(results) == 4
        assert broker.stats().completed == 4
        assert broker.stats().max_queue_depth <= 1


class TestLifecycleAndErrors:
    def test_close_drains_and_rejects_new_submissions(self):
        sigma = _spd(7, seed=15)
        boxes = _boxes(7, 5)
        broker = QueryBroker(
            ServeConfig(n_shards=2, worker_mode="thread", batch_window=0.02),
            SolverConfig(method="dense", n_samples=150),
        )
        futures = [broker.submit(a, b, sigma, rng=0) for a, b in boxes]
        broker.close()
        # close() drained: every future resolved without explicit waiting
        assert all(future.done() for future in futures)
        assert broker.stats().queue_depth == 0
        assert broker.closed
        with pytest.raises(RuntimeError, match="closed"):
            broker.submit(boxes[0][0], boxes[0][1], sigma, rng=0)
        with pytest.raises(RuntimeError, match="closed"):
            with broker:
                pass
        broker.close()  # idempotent

    def test_thread_workers_exit_on_close(self):
        before = {thread.name for thread in threading.enumerate()}
        broker = QueryBroker(
            ServeConfig(n_shards=2, worker_mode="thread"),
            SolverConfig(method="dense", n_samples=50),
        )
        broker.close()
        time.sleep(0.05)
        after = {thread.name for thread in threading.enumerate()} - before
        assert not any(name.startswith("repro-serve") for name in after)

    def test_process_mode_serves_and_shuts_down(self):
        sigma = _spd(6, seed=16)
        a, b = _boxes(6, 1)[0]
        broker = QueryBroker(
            ServeConfig(n_shards=2, worker_mode="process", batch_window=0.01),
            SolverConfig(method="dense", n_samples=100),
        )
        try:
            served = broker.submit(a, b, sigma, rng=1).result(timeout=120)
        finally:
            broker.close()
        with MVNSolver(SolverConfig(method="dense", n_samples=100)) as solver:
            direct = solver.model(sigma).probability(a, b, rng=1)
        # bit-identical across the process boundary too
        assert served.probability == direct.probability
        assert served.error == direct.error
        assert all(not shard.worker.is_alive() for shard in broker._pool.shards)

    def test_dead_worker_fails_futures_instead_of_hanging(self, serve_books):
        """A crashed shard process must not wedge the broker: its in-flight
        futures fail with ServeError, so do the requests held for it, and
        their backpressure slots free up."""
        sigma = _spd(6, seed=20)
        a, b = _boxes(6, 1)[0]
        window = 0.01
        broker = QueryBroker(
            ServeConfig(n_shards=1, worker_mode="process", batch_window=window),
            SolverConfig(method="dense", n_samples=100),
        )
        try:
            # warm the shard up, then busy it with slow batches: requests
            # that arrive now are held for it, in two buckets
            broker.submit(a, b, sigma, rng=0).result(timeout=120)
            futures = serve_books.fill(broker, a, b, sigma, rng=1, n_samples=1_000_000)
            futures += [broker.submit(a, b, sigma, rng=seed) for seed in (2, 2, 3)]
            time.sleep(3 * window)
            assert serve_books.held(broker) == 3
            # kill the shard out from under the broker
            broker._pool.shards[0].worker.terminate()
            broker._pool.shards[0].worker.join(10)
            future = broker.submit(a, b, sigma, rng=4)
            for pending in futures + [future]:
                with pytest.raises(ServeError, match="died"):
                    pending.result(timeout=30)
            assert broker.stats().failed == len(futures) + 1
            assert broker.stats().queue_depth == 0
        finally:
            broker.close(timeout=10)
        serve_books.settled(broker, futures + [future])

    def test_shard_failure_rejects_the_future(self, thread_broker):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # not positive definite
        future = thread_broker.submit([-np.inf, -np.inf], [0.0, 0.0], indefinite, rng=0)
        with pytest.raises(ServeError, match="shard"):
            future.result(timeout=60)
        assert thread_broker.stats().failed == 1
        # the shard survives and keeps serving good requests
        sigma = _spd(4, seed=17)
        a, b = _boxes(4, 1)[0]
        assert thread_broker.submit(a, b, sigma, rng=0).result(timeout=60).probability > 0

    def test_submit_validation(self, thread_broker):
        sigma = _spd(4, seed=18)
        with pytest.raises(TypeError, match="integer seed"):
            thread_broker.submit([-np.inf] * 4, [0.0] * 4, sigma,
                                 rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="square"):
            thread_broker.submit([-np.inf] * 4, [0.0] * 4, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="length 4"):
            thread_broker.submit([-np.inf] * 3, [0.0] * 3, sigma)
        with pytest.raises(ValueError, match="lower limit exceeds"):
            thread_broker.submit([1.0] * 4, [0.0] * 4, sigma)
        with pytest.raises(ValueError, match="mean"):
            thread_broker.submit([-np.inf] * 4, [0.0] * 4, sigma, mean=np.zeros(5))

    def test_async_submission(self, thread_broker):
        sigma = _spd(5, seed=19)
        a, b = _boxes(5, 1)[0]

        async def query():
            return await thread_broker.submit_async(a, b, sigma, rng=0)

        result = asyncio.run(query())
        assert 0.0 <= result.probability <= 1.0


class TestAsyncServing:
    """`submit_async` under real event loops: gather, cancel, shutdown."""

    def test_concurrent_gather_mixed_fingerprints(self, thread_broker):
        sigmas = [_spd(5, seed=seed) for seed in range(3)]
        boxes = _boxes(5, 6, seed=3)

        async def run():
            coros = [
                thread_broker.submit_async(a, b, sigmas[i % 3], rng=i)
                for i, (a, b) in enumerate(boxes)
            ]
            return await asyncio.gather(*coros)

        results = asyncio.run(run())
        # parity: the same queries submitted synchronously, one at a time
        for i, ((a, b), got) in enumerate(zip(boxes, results)):
            expected = thread_broker.submit(a, b, sigmas[i % 3], rng=i).result()
            assert got.probability == expected.probability
            assert got.error == expected.error

    def test_cancelled_future_does_not_wedge_the_broker(self):
        broker = QueryBroker(
            ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.2),
            SolverConfig(method="dense", n_samples=200),
        )
        try:
            sigma = _spd(4, seed=31)
            a, b = _boxes(4, 1)[0]

            async def cancel_one():
                task = asyncio.ensure_future(
                    broker.submit_async(a, b, sigma, rng=0))
                await asyncio.sleep(0)      # let it get submitted
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task

            asyncio.run(cancel_one())
            # the broker tolerates resolving a cancelled future and the slot
            # is released: later submissions still complete
            result = broker.submit(a, b, sigma, rng=1).result(timeout=60)
            assert 0.0 <= result.probability <= 1.0
            assert broker.stats().queue_depth == 0
        finally:
            broker.close()

    def test_close_drains_in_flight_async_waiters(self):
        broker = QueryBroker(
            ServeConfig(n_shards=2, worker_mode="thread", batch_window=0.01),
            SolverConfig(method="dense", n_samples=2000),
        )
        sigma = _spd(8, seed=32)
        boxes = _boxes(8, 8, seed=5)

        async def run():
            coros = [
                broker.submit_async(a, b, sigma, rng=i)
                for i, (a, b) in enumerate(boxes)
            ]
            gathered = asyncio.gather(*coros)
            # close from a worker thread while the waiters are pending;
            # close() drains, so every future must complete, not error
            closer = asyncio.get_running_loop().run_in_executor(
                None, broker.close)
            results = await gathered
            await closer
            return results

        results = asyncio.run(run())
        assert len(results) == 8
        assert all(0.0 <= r.probability <= 1.0 for r in results)
        assert broker.closed


class TestSigmaAccounting:
    """Ship-once bookkeeping: a resident Sigma is never re-sent."""

    def test_resident_sigma_skips_the_send(self):
        broker = QueryBroker(
            ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.0),
            SolverConfig(method="dense", n_samples=200),
        )
        try:
            sigma = _spd(5, seed=41)
            a, b = _boxes(5, 1)[0]
            for seed in range(4):           # distinct seeds: no batch sharing
                broker.submit(a, b, sigma, rng=seed).result(timeout=60)
            stats = broker.stats()
            assert stats.sigma_sends == 1
            assert stats.sigma_skips >= 1
            assert stats.sigma_bytes == sigma.nbytes
            assert all(s.redundant_sigmas == 0 for s in stats.shards)
        finally:
            broker.close()

    def test_eviction_forces_a_resend_but_never_a_redundant_one(self):
        broker = QueryBroker(
            ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.0,
                        cache_entries=1),
            SolverConfig(method="dense", n_samples=200),
        )
        try:
            first, second = _spd(5, seed=42), _spd(5, seed=43)
            a, b = _boxes(5, 1)[0]
            for sigma in (first, second, first, second):
                broker.submit(a, b, sigma, rng=0).result(timeout=60)
            stats = broker.stats()
            # capacity-1 roster: every alternation evicts, so all four
            # arrivals shipped — but none was redundant at the shard
            assert stats.sigma_sends == 4
            assert all(s.redundant_sigmas == 0 for s in stats.shards)
        finally:
            broker.close()

    def test_stats_dict_roundtrip_preserves_lineage_counters(self):
        from repro.serve.stats import ServeStats

        stats = ServeStats(lineage_routes=3, lineage_fallbacks=1,
                           update_sends=3, update_bytes=1536)
        restored = ServeStats.from_dict(stats.as_dict())
        assert restored.lineage_routes == 3
        assert restored.lineage_fallbacks == 1
        assert restored.update_sends == 3
        assert restored.update_bytes == 1536
        # legacy payloads without the counters read back as zero
        legacy = {k: v for k, v in stats.as_dict().items()
                  if not k.startswith(("lineage", "update"))}
        assert ServeStats.from_dict(legacy).lineage_routes == 0

    def test_stats_dict_roundtrip_preserves_max_batch(self, thread_broker):
        sigma = _spd(4, seed=44)
        a, b = _boxes(4, 1)[0]
        thread_broker.submit(a, b, sigma, rng=0).result(timeout=60)
        stats = thread_broker.stats()
        assert stats.max_batch == 8
        from repro.serve.stats import ServeStats

        restored = ServeStats.from_dict(stats.as_dict())
        assert restored.max_batch == 8
        assert restored.sigma_sends == stats.sigma_sends
        # legacy payloads without the field fall back to the keyword
        legacy = {k: v for k, v in stats.as_dict().items() if k != "max_batch"}
        assert ServeStats.from_dict(legacy, max_batch=5).max_batch == 5

    def test_latency_quantiles_cover_completed_requests(self):
        from repro.serve.stats import LATENCY_WINDOW, ServeStats

        sigma = _spd(5, seed=45)
        boxes = _boxes(5, 6, seed=7)
        zeros = {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.0),
                         SolverConfig(method="dense", n_samples=200)) as broker:
            assert broker.stats().queue_seconds == zeros
            results = [broker.submit(a, b, sigma, rng=seed).result(timeout=60)
                       for seed, (a, b) in enumerate(boxes)]
            stats = broker.stats()
            assert broker._queue_seconds.maxlen == LATENCY_WINDOW
        waits = [result.details["serve"]["queue_seconds"] for result in results]
        for q in (50, 95, 99):
            assert stats.queue_seconds[f"p{q}"] == pytest.approx(np.percentile(waits, q))
        assert 0.0 < stats.service_seconds["p50"] <= stats.service_seconds["p95"] \
            <= stats.service_seconds["p99"]
        restored = ServeStats.from_dict(stats.as_dict())
        assert restored.queue_seconds == stats.queue_seconds
        assert restored.service_seconds == stats.service_seconds
        # payloads written before the quantiles existed read back as zeros
        legacy = {k: v for k, v in stats.as_dict().items() if not k.endswith("_seconds")}
        assert ServeStats.from_dict(legacy).service_seconds == zeros


class TestLineageRouting:
    """Updated models follow their parent's shard and ship only rank-k."""

    def _lineage_broker(self, n_shards: int = 2, **config):
        params = dict(n_shards=n_shards, worker_mode="thread",
                      batch_window=0.0)
        params.update(config)
        return QueryBroker(ServeConfig(**params),
                          SolverConfig(method="dense", n_samples=200))

    def test_update_routes_to_parents_shard(self):
        from repro.serve import SigmaUpdate

        sigma = _spd(8, seed=50)
        u = 0.1 * np.random.default_rng(51).standard_normal((8, 2))
        a, b = _boxes(8, 1)[0]
        broker = self._lineage_broker()
        try:
            parent = broker.submit(a, b, sigma, rng=0).result(timeout=60)
            child = broker.submit(a, b, SigmaUpdate(sigma, u),
                                  rng=0).result(timeout=60)
            home = parent.details["serve"]["shard"]
            assert child.details["serve"]["shard"] == home
            assert child.details["serve"]["lineage"]["warm"] is True
            assert child.details["serve"]["lineage"]["parent"] == \
                sigma_fingerprint(sigma)
            assert child.details["lineage"]["rank"] == 2
            stats = broker.stats()
            assert stats.lineage_routes == 1
            assert stats.lineage_fallbacks == 0
            # the up-date ran on the parent's shard, nowhere else
            assert stats.shards[home].updates == 1
            assert sum(s.updates for s in stats.shards) == 1
        finally:
            broker.close()

    def test_ship_once_counts_rank_k_payload_not_sigma(self):
        from repro.serve import SigmaUpdate

        sigma = _spd(8, seed=52)
        u = 0.1 * np.random.default_rng(53).standard_normal((8, 3))
        a, b = _boxes(8, 1)[0]
        broker = self._lineage_broker(n_shards=1)
        try:
            broker.submit(a, b, sigma, rng=0).result(timeout=60)
            for seed in range(2):       # distinct seeds: no batch sharing
                broker.submit(a, b, SigmaUpdate(sigma, u),
                              rng=seed).result(timeout=60)
            stats = broker.stats()
            # the full covariance shipped exactly once (the parent); the
            # update path moved only the n x k payload, and only once —
            # the second submission found the child resident
            assert stats.sigma_sends == 1
            assert stats.sigma_bytes == sigma.nbytes
            assert stats.update_sends == 1
            assert stats.update_bytes == u.nbytes
            assert stats.sigma_skips >= 1
            assert all(s.redundant_sigmas == 0 for s in stats.shards)
        finally:
            broker.close()

    def test_chain_colocates_on_the_root_shard(self):
        from repro.serve import SigmaUpdate

        sigma = _spd(8, seed=54)
        rng = np.random.default_rng(55)
        a, b = _boxes(8, 1)[0]
        broker = self._lineage_broker()
        try:
            parent = broker.submit(a, b, sigma, rng=0).result(timeout=60)
            home = parent.details["serve"]["shard"]
            chain = None
            for step in range(3):
                u = 0.05 * rng.standard_normal((8, 1))
                chain = SigmaUpdate(chain if chain is not None else sigma,
                                    u, downdate=bool(step % 2))
                result = broker.submit(a, b, chain, rng=0).result(timeout=60)
                assert result.details["serve"]["shard"] == home
                assert result.details["serve"]["lineage"]["warm"] is True
                assert result.details["lineage"]["depth"] == step + 1
            stats = broker.stats()
            assert stats.lineage_routes == 3
            assert stats.shards[home].updates == 3
        finally:
            broker.close()

    def test_cold_fallback_when_parent_never_seen(self):
        from repro.serve import SigmaUpdate

        sigma = _spd(8, seed=56)
        u = 0.1 * np.random.default_rng(57).standard_normal((8, 2))
        a, b = _boxes(8, 1)[0]
        broker = self._lineage_broker(n_shards=1)
        try:
            # the parent was never submitted: the broker must assemble the
            # child covariance and ship it like any other Sigma
            result = broker.submit(a, b, SigmaUpdate(sigma, u),
                                   rng=0).result(timeout=60)
            stats = broker.stats()
            assert stats.lineage_fallbacks == 1
            assert stats.lineage_routes == 0
            assert result.details["serve"]["lineage"]["warm"] is False
            # the cold path factorizes from scratch: bit-identical to a
            # direct model of the assembled child covariance
            with MVNSolver(SolverConfig(method="dense", n_samples=200)) as solver:
                direct = solver.model(sigma + u @ u.T).probability(a, b, rng=0)
            assert result.probability == direct.probability
        finally:
            broker.close()

    def test_dead_parent_shard_fails_over_to_refactorization(self):
        """Killing the shard that holds a lineage chain must not wedge
        updated-model queries: they fail over to a cold refactorization on
        a live shard."""
        from repro.serve import SigmaUpdate

        n = 8
        sigma = _spd(n, seed=58)
        a, b = _boxes(n, 1)[0]
        home = shard_for_fingerprint(sigma_fingerprint(sigma), 2)
        u = 0.1 * np.random.default_rng(59).standard_normal((n, 2))

        broker = QueryBroker(
            ServeConfig(n_shards=2, worker_mode="process", batch_window=0.01),
            SolverConfig(method="dense", n_samples=100),
        )
        try:
            broker.submit(a, b, sigma, rng=0).result(timeout=120)
            broker._pool.shards[home].worker.terminate()
            broker._pool.shards[home].worker.join(10)
            # wait for the collector's liveness check to declare the death
            deadline = time.perf_counter() + 30
            while home not in broker._dead_shards:
                if time.perf_counter() > deadline:  # pragma: no cover
                    pytest.fail("broker never noticed the dead shard")
                time.sleep(0.1)
            result = broker.submit(a, b, SigmaUpdate(sigma, u),
                                   rng=0).result(timeout=120)
            assert result.details["serve"]["shard"] != home
            assert result.details["serve"]["lineage"]["warm"] is False
            stats = broker.stats()
            assert stats.lineage_fallbacks == 1
            assert stats.lineage_routes == 0
        finally:
            broker.close(timeout=10)

    def test_sigma_update_validation(self, thread_broker):
        from repro.serve import SigmaUpdate

        sigma = _spd(4, seed=60)
        with pytest.raises(ValueError, match="square"):
            SigmaUpdate(np.zeros((4, 3)), np.ones(4))
        with pytest.raises(ValueError, match="rows"):
            SigmaUpdate(sigma, np.ones((5, 1)))
        with pytest.raises(ValueError, match="finite"):
            SigmaUpdate(sigma, np.full(4, np.nan))
        update = SigmaUpdate(sigma, np.ones(4), downdate=True)
        assert update.n == 4
        np.testing.assert_allclose(update.assemble(), sigma - np.ones((4, 4)))
        nested = SigmaUpdate(update, 2.0 * np.ones(4))
        np.testing.assert_allclose(nested.assemble(),
                                   sigma - np.ones((4, 4)) + 4.0 * np.ones((4, 4)))
