"""Tests for the multi-node serving layer (`repro.serve.net`).

Four properties pin the subsystem:

* **transport** — every shared-memory segment the broker ever creates is
  unlinked by the time it closes (attach-probing the recorded names proves
  it), refcounts follow the roster mirrors, and a shard killed mid-request
  fails its futures with `ServeError` without leaking a segment;
* **gateway** — a malformed line, an unknown field, an oversized payload or
  a client vanishing mid-request each produce a structured error (or a
  clean close), never a wedged connection, and network answers stay
  bit-identical to in-process `submit()`;
* **placement** — the replicate-vs-route decision follows the cluster cost
  model: hot factors replicate, cold ones route, and execution nodes are
  consistent with the decision;
* **autoscaling** — the dual-watermark/patience hysteresis grows and
  shrinks only on sustained pressure, inside the configured bounds, and a
  resized broker keeps serving correct results.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.batch.cache import sigma_fingerprint
from repro.query import MVNQuery
from repro.serve import QueryBroker, ServeConfig, ServeError
from repro.serve.net import (
    Autoscaler,
    BackgroundGateway,
    GatewayError,
    NodePool,
    SegmentKeeper,
    ServeClient,
    ServeGateway,
    SharedSigmaStore,
    attach_descriptor,
    is_shm_descriptor,
    shm_available,
)
from repro.serve.pool import shard_for_fingerprint
from repro.serve.stats import ServeStats
from repro.solver import SolverConfig

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no POSIX shared memory"
)


def _spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _assert_unlinked(names):
    """Attach-probing a truly unlinked segment must fail."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            segment = shared_memory.SharedMemory(name=name)
            segment.close()


def _shm_thread_broker(n_shards=2, **config_kwargs):
    """A thread-mode broker forced onto the shared-memory transport."""
    config_kwargs.setdefault("batch_window", 0.002)
    return QueryBroker(
        ServeConfig(n_shards=n_shards, worker_mode="thread",
                    sigma_transport="shm", **config_kwargs),
        SolverConfig(method="dense", n_samples=200),
    )


class TestSharedSigmaStore:
    def test_descriptor_roundtrip(self):
        store = SharedSigmaStore()
        sigma = _spd(6, seed=1)
        descriptor = store.publish(sigma_fingerprint(sigma), sigma)
        assert is_shm_descriptor(descriptor)
        view, segment = attach_descriptor(descriptor)
        try:
            np.testing.assert_array_equal(view, sigma)
            assert not view.flags.writeable
        finally:
            del view
            segment.close()
            store.close()

    def test_non_descriptors_rejected(self):
        assert not is_shm_descriptor(np.zeros((2, 2)))
        assert not is_shm_descriptor(("wrong", "a", (2, 2), "float64", 1))
        with pytest.raises(ValueError, match="not a shared-memory descriptor"):
            attach_descriptor(("nope",))

    def test_refcounted_lifecycle(self):
        store = SharedSigmaStore()
        sigma = _spd(5)
        fingerprint = sigma_fingerprint(sigma)
        store.publish(fingerprint, sigma)
        store.publish(fingerprint, sigma)   # second shard: same segment
        assert store.publish_count == 1
        assert len(store.created_names) == 1
        store.release(fingerprint)
        assert store.live_names()           # one reference still held
        store.release(fingerprint)
        assert not store.live_names()
        _assert_unlinked(store.created_names)
        store.close()

    def test_release_of_unknown_fingerprint_is_ignored(self):
        store = SharedSigmaStore()
        store.release("no-such-fingerprint")
        store.close()

    def test_acquire_references_existing_segment_only(self):
        store = SharedSigmaStore()
        sigma = _spd(4)
        fingerprint = sigma_fingerprint(sigma)
        assert store.acquire(fingerprint) is None
        published = store.publish(fingerprint, sigma)
        acquired = store.acquire(fingerprint)
        assert acquired[1] == published[1]   # same segment name
        store.release(fingerprint)
        assert store.live_names()            # acquire took a real reference
        store.release(fingerprint)
        assert not store.live_names()
        store.close()

    def test_close_unlinks_everything_and_refuses_reuse(self):
        store = SharedSigmaStore()
        for seed in range(3):
            sigma = _spd(4, seed=seed)
            store.publish(sigma_fingerprint(sigma), sigma)
        store.close()
        assert not store.live_names()
        _assert_unlinked(store.created_names)
        with pytest.raises(RuntimeError, match="closed"):
            store.publish("fp", _spd(3))

    def test_segment_keeper_bookkeeping(self):
        store = SharedSigmaStore()
        sigma = _spd(4)
        fingerprint = sigma_fingerprint(sigma)
        view, segment = attach_descriptor(store.publish(fingerprint, sigma))
        keeper = SegmentKeeper()
        keeper.adopt(fingerprint, segment)
        assert len(keeper) == 1
        keeper.drop(fingerprint)            # evicted: handle becomes pending
        del view
        keeper.sweep()
        assert len(keeper) == 0
        keeper.drop("never-adopted")        # unknown fingerprint is a no-op
        assert len(keeper) == 0
        store.close()

    def test_segment_keeper_close_all(self):
        store = SharedSigmaStore()
        keeper = SegmentKeeper()
        for seed in range(2):
            sigma = _spd(4, seed=seed)
            fingerprint = sigma_fingerprint(sigma)
            view, segment = attach_descriptor(store.publish(fingerprint, sigma))
            keeper.adopt(fingerprint, segment)
            del view
        keeper.drop(sigma_fingerprint(_spd(4, seed=0)))
        assert len(keeper) == 2             # one tracked + one pending
        keeper.close_all()
        assert len(keeper) == 0
        store.close()


class TestBrokerSegmentLifecycle:
    def test_broker_close_leaves_no_segments(self):
        broker = _shm_thread_broker()
        store = broker.sigma_store
        sigmas = [_spd(6, seed=seed) for seed in range(3)]
        futures = [
            broker.submit([-np.inf] * 6, [0.0] * 6, sigma, rng=seed)
            for seed, sigma in enumerate(sigmas)
        ]
        for future in futures:
            assert 0.0 <= future.result().probability <= 1.0
        created = list(store.created_names)
        assert len(created) == 3            # one segment per distinct Sigma
        broker.close()
        assert not store.live_names()
        _assert_unlinked(created)

    def test_roster_eviction_releases_segments(self):
        broker = _shm_thread_broker(n_shards=1, cache_entries=1)
        store = broker.sigma_store
        first, second = _spd(5, seed=1), _spd(5, seed=2)
        broker.submit([-np.inf] * 5, [0.0] * 5, first, rng=0).result()
        broker.submit([-np.inf] * 5, [0.0] * 5, second, rng=0).result()
        # capacity-1 roster: publishing the second Sigma evicted the first
        assert len(store.live_names()) == 1
        broker.close()
        _assert_unlinked(store.created_names)

    @pytest.mark.slow
    def test_killed_shard_fails_futures_without_leaking(self, serve_books):
        config = ServeConfig(n_shards=1, worker_mode="process",
                             sigma_transport="shm", batch_window=0.002)
        broker = QueryBroker(config, SolverConfig(method="dense", n_samples=40000))
        store = broker.sigma_store
        sigma, other = _spd(16, seed=3), _spd(16, seed=4)
        box = ([-np.inf] * 16, [0.0] * 16)
        try:
            futures = serve_books.fill(broker, *box, sigma, rng=0, n_samples=400_000)
            # held behind the busy shard: one bucket per covariance
            futures += [broker.submit(*box, s, rng=1) for s in (sigma, other, other)]
            time.sleep(0.01)
            assert serve_books.held(broker) == 3
            time.sleep(0.25)                # let the batch reach the worker
            broker._pool.shards[0].worker.terminate()
            for future in futures:
                with pytest.raises(ServeError):
                    future.result(timeout=30)
            # the held buckets shipped after the death: the second covariance
            # was published then, into a segment of its own
            assert len(store.created_names) >= 2
        finally:
            broker.close()
        serve_books.settled(broker, futures)

    @pytest.mark.slow
    def test_dead_home_routes_to_a_live_shard(self, serve_books):
        """After the shard that owns a covariance dies, a request on that
        covariance goes to the live shard and is answered bit-identically
        to a direct model, and the broker's books settle."""
        from repro import MVNSolver

        solver_config = SolverConfig(method="dense", n_samples=200)
        broker = QueryBroker(
            ServeConfig(n_shards=2, worker_mode="process", sigma_transport="shm",
                        batch_window=0.002),
            solver_config,
        )
        sigma = _spd(8, seed=11)
        box = ([-np.inf] * 8, [0.5] * 8)
        home = shard_for_fingerprint(sigma_fingerprint(sigma), 2)
        futures = []
        try:
            futures.append(broker.submit(*box, sigma, rng=0))
            assert futures[0].result(timeout=120).details["serve"]["shard"] == home
            broker._pool.shards[home].worker.terminate()
            broker._pool.shards[home].worker.join(10)
            deadline = time.perf_counter() + 30
            while home not in broker._dead_shards:
                assert time.perf_counter() < deadline, "broker never noticed the dead shard"
                time.sleep(0.05)
            futures.append(broker.submit(*box, sigma, rng=1))
            served = futures[1].result(timeout=120)
        finally:
            broker.close(timeout=10)
        assert served.details["serve"]["shard"] == 1 - home
        with MVNSolver(solver_config) as solver:
            direct = solver.model(sigma).probability(*box, rng=1)
        assert (served.probability, served.error) == (direct.probability, direct.error)
        serve_books.settled(broker, futures)

    def test_close_sends_held_buckets(self, shard_gate, serve_books):
        """close() while buckets are held behind a busy shard: it sends them
        all, and every one of them is answered."""
        broker = _shm_thread_broker(n_shards=1, batch_window=0.01)
        sigmas = [_spd(6, seed=seed) for seed in (5, 6)]
        box = ([-np.inf] * 6, [0.5] * 6)
        closer = threading.Thread(target=broker.close)
        try:
            futures = serve_books.fill(broker, *box, sigmas[0], rng=shard_gate.seed, n_samples=200)
            assert shard_gate.entered.wait(30)
            futures += [broker.submit(*box, sigma, rng=seed)
                        for sigma in sigmas for seed in (0, 0, 1)]
            time.sleep(0.03)
            assert serve_books.held(broker) == 6
            closer.start()
            deadline = time.perf_counter() + 30
            while serve_books.held(broker):
                assert time.perf_counter() < deadline, "close() never sent the held buckets"
                time.sleep(0.005)
            assert not any(future.done() for future in futures)
            shard_gate.release.set()
            closer.join(60)
        finally:
            shard_gate.release.set()
            broker.close()
        assert all(0.0 <= future.result().probability <= 1.0 for future in futures)
        assert broker.stats().completed == len(futures)
        serve_books.settled(broker, futures)


class TestResize:
    def test_shrink_reroutes_held_buckets(self, shard_gate, serve_books):
        """Held buckets route when they are sent: shrinking away their busy
        shard sends them to a free one at once, bit-identically."""
        for seed in range(64):
            sigma = _spd(6, seed=seed)
            if shard_for_fingerprint(sigma_fingerprint(sigma), 2) == 1:
                break
        else:  # pragma: no cover - 2^-64 chance
            pytest.fail("no fingerprint routed to shard 1")
        box = ([-np.inf] * 6, [0.5] * 6)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         SolverConfig(method="dense", n_samples=200)) as direct:
            expected = direct.submit(*box, sigma, rng=7).result()

        broker = _shm_thread_broker(n_shards=2, batch_window=0.01)
        try:
            blockers = serve_books.fill(broker, *box, sigma, rng=shard_gate.seed, n_samples=200)
            assert shard_gate.entered.wait(30)
            futures = [broker.submit(*box, sigma, rng=7) for _ in range(3)]
            time.sleep(0.03)
            assert serve_books.held(broker) == 3
            assert broker.resize(1) == 1
            # shard 1 retires behind its blocked batch; the held bucket went
            # to shard 0 and is answered while the gate is still shut
            results = [future.result(timeout=30) for future in futures]
            assert not any(blocker.done() for blocker in blockers)
            shard_gate.release.set()
            for blocker in blockers:
                blocker.result(timeout=30)
        finally:
            shard_gate.release.set()
            broker.close()
        for result in results:
            assert result.details["serve"]["shard"] == 0
            assert result.details["serve"]["batch_size"] == 3
            assert result.probability == expected.probability
            assert result.error == expected.error
        serve_books.settled(broker, blockers + futures)

    def test_grow_and_shrink_keep_serving_bit_identically(self):
        sigma = _spd(6, seed=9)
        box = ([-np.inf] * 6, [0.5] * 6)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         SolverConfig(method="dense", n_samples=200)) as direct:
            expected = direct.submit(*box, sigma, rng=7).result()

        broker = _shm_thread_broker(n_shards=2)
        try:
            before = broker.submit(*box, sigma, rng=7).result()
            assert broker.resize(4) == 4
            grown = broker.submit(*box, sigma, rng=7).result()
            assert broker.resize(1) == 1
            shrunk = broker.submit(*box, sigma, rng=7).result()
            for result in (before, grown, shrunk):
                assert result.probability == expected.probability
                assert result.error == expected.error
        finally:
            broker.close()
        _assert_unlinked(broker.sigma_store.created_names)

    def test_grow_warm_starts_rerouted_fingerprints(self):
        broker = _shm_thread_broker(n_shards=1)
        try:
            # a Sigma whose fingerprint re-routes to the new shard at n=2
            for seed in range(64):
                sigma = _spd(5, seed=seed)
                if shard_for_fingerprint(sigma_fingerprint(sigma), 2) == 1:
                    break
            else:  # pragma: no cover - 2^-64 chance
                pytest.fail("no fingerprint routed to shard 1")
            broker.submit([-np.inf] * 5, [0.0] * 5, sigma, rng=0).result()
            broker.resize(2)
            stats = broker.stats()
            assert stats.preloads == 1
            # the warm-started shard serves without a re-send
            broker.submit([-np.inf] * 5, [0.0] * 5, sigma, rng=1).result()
            stats = broker.stats()
            assert stats.sigma_sends == 1
            assert all(s.redundant_sigmas == 0 for s in stats.shards)
        finally:
            broker.close()

    def test_resize_validation(self):
        broker = _shm_thread_broker(n_shards=1)
        try:
            with pytest.raises(ValueError, match="n_shards"):
                broker.resize(0)
        finally:
            broker.close()
        with pytest.raises(RuntimeError):
            broker.resize(2)


class _StubBroker:
    """Deterministic stand-in for Autoscaler tests (counts resize calls)."""

    def __init__(self, n_shards: int = 1) -> None:
        self.n_shards = n_shards
        self.resizes: list[int] = []
        self.closed = False

    def resize(self, n: int) -> int:
        self.n_shards = n
        self.resizes.append(n)
        return n

    def stats(self) -> ServeStats:  # pragma: no cover - injected in tests
        return ServeStats()


def _depth(value: int) -> ServeStats:
    return ServeStats(queue_depth=value)


class TestAutoscaler:
    def test_grow_needs_sustained_pressure(self):
        broker = _StubBroker(n_shards=1)
        scaler = Autoscaler(broker, min_shards=1, max_shards=4,
                            high_water=8.0, low_water=1.0,
                            grow_patience=2, shrink_patience=3)
        assert scaler.tick(_depth(100)).action == "hold"   # patience 1/2
        decision = scaler.tick(_depth(100))                # patience 2/2
        assert decision.action == "grow"
        assert broker.resizes == [2]

    def test_in_band_observation_resets_patience(self):
        broker = _StubBroker(n_shards=1)
        scaler = Autoscaler(broker, high_water=8.0, low_water=1.0,
                            grow_patience=2, shrink_patience=2)
        scaler.tick(_depth(100))
        scaler.tick(_depth(4))                             # in band: reset
        assert scaler.tick(_depth(100)).action == "hold"   # back to 1/2
        assert broker.resizes == []

    def test_shrink_is_more_patient_and_bounded(self):
        broker = _StubBroker(n_shards=2)
        scaler = Autoscaler(broker, min_shards=1, max_shards=4,
                            high_water=8.0, low_water=1.0,
                            grow_patience=1, shrink_patience=3)
        for _ in range(2):
            assert scaler.tick(_depth(0)).action == "hold"
        assert scaler.tick(_depth(0)).action == "shrink"
        assert broker.n_shards == 1
        # at min_shards the shrink rule can no longer fire
        for _ in range(5):
            assert scaler.tick(_depth(0)).action == "hold"
        assert broker.resizes == [1]

    def test_grow_stops_at_max_shards(self):
        broker = _StubBroker(n_shards=4)
        scaler = Autoscaler(broker, min_shards=1, max_shards=4,
                            high_water=1.0, low_water=0.5, grow_patience=1)
        for _ in range(3):
            assert scaler.tick(_depth(1000)).action == "hold"
        assert broker.resizes == []

    @pytest.mark.parametrize("kwargs", [
        {"min_shards": 0}, {"min_shards": 3, "max_shards": 2},
        {"high_water": 1.0, "low_water": 2.0}, {"grow_patience": 0},
        {"step": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Autoscaler(_StubBroker(), **kwargs)

    def test_background_loop_scales_a_live_broker(self):
        broker = _shm_thread_broker(n_shards=1, max_batch=2, batch_window=0.05)
        try:
            scaler = Autoscaler(broker, min_shards=1, max_shards=2,
                                high_water=2.0, low_water=0.1,
                                grow_patience=1, shrink_patience=1000)
            with scaler:
                scaler.run(interval=0.02)
                sigmas = [_spd(8, seed=seed) for seed in range(4)]
                futures = [
                    broker.submit([-np.inf] * 8, [0.0] * 8, sigmas[i % 4],
                                  n_samples=2000, rng=i)
                    for i in range(32)
                ]
                for future in futures:
                    future.result(timeout=60)
                deadline = time.time() + 5.0
                while broker.n_shards < 2 and time.time() < deadline:
                    time.sleep(0.02)
            assert broker.n_shards == 2
            assert any(d.action == "grow" for d in scaler.decisions)
        finally:
            broker.close()


class TestPlacement:
    def test_home_node_matches_shard_routing(self):
        pool = NodePool(n_nodes=4)
        fingerprint = sigma_fingerprint(_spd(4))
        assert pool.home_node(fingerprint) == shard_for_fingerprint(fingerprint, 4)

    def test_hot_factor_replicates_cold_factor_routes(self):
        pool = NodePool(n_nodes=4)
        hot = pool.decide("ab" * 32, n=512, expected_hits=1e6)
        cold = pool.decide("cd" * 32, n=512, expected_hits=1.0)
        assert hot.action == "replicate" and hot.replicated
        assert cold.action == "route" and not cold.replicated
        assert ">" in hot.reason and "<=" in cold.reason

    def test_single_node_never_replicates(self):
        pool = NodePool(n_nodes=1)
        assert pool.decide("ab" * 32, n=256, expected_hits=1e9).action == "route"

    def test_decisions_are_memoized(self):
        pool = NodePool(n_nodes=2)
        first = pool.decide("ab" * 32, n=128, expected_hits=1e6)
        second = pool.decide("ab" * 32, n=128, expected_hits=0.0)
        assert second is first
        assert pool.decisions() == {"ab" * 32: first}

    def test_execution_node_follows_the_decision(self):
        pool = NodePool(n_nodes=4)
        hot, cold = "ab" * 32, "cd" * 32
        pool.decide(hot, n=512, expected_hits=1e6)
        cold_decision = pool.decide(cold, n=512, expected_hits=1.0)
        assert pool.execution_node(hot, origin_node=3) == 3    # replicated: local
        assert pool.execution_node(cold, origin_node=3) == cold_decision.home_node
        with pytest.raises(KeyError):
            pool.execution_node("ef" * 32, origin_node=0)

    def test_larger_factors_need_more_hits_to_replicate(self):
        pool = NodePool(n_nodes=4)
        hits = 2000.0
        small = pool.decide("aa" * 32, n=64, expected_hits=hits)
        large = pool.decide("bb" * 32, n=4096, expected_hits=hits)
        assert small.replicate_cost < large.replicate_cost
        assert small.action == "replicate"
        assert large.action == "route"

    def test_tlr_install_cost_includes_compression(self):
        pool = NodePool(n_nodes=2)
        assert (pool.replicate_cost(1024, "tlr")
                != pool.replicate_cost(1024, "dense"))


@pytest.fixture(scope="module")
def gateway_endpoint():
    """One broker + live gateway shared by the golden-protocol tests."""
    broker = QueryBroker(
        ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.002),
        SolverConfig(method="dense", n_samples=200),
    )
    background = BackgroundGateway(broker, max_line_bytes=256 * 1024)
    with background:
        yield background
    broker.close()


def _raw_lines(address, payloads: list[bytes]) -> list[dict]:
    """Send raw bytes, return every JSON response line until EOF."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(b"".join(payloads))
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return [json.loads(line) for line in data.splitlines() if line.strip()]


class TestGatewayGolden:
    """Protocol abuse: structured errors, never a wedged connection."""

    def test_malformed_json_answers_and_keeps_the_connection(self, gateway_endpoint):
        responses = _raw_lines(gateway_endpoint.address, [
            b"this is not json\n",
            b'{"op": "ping", "id": 7}\n',
        ])
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["type"] == "bad-request"
        assert "malformed JSON" in responses[0]["error"]["message"]
        # the connection survived: the ping after the garbage still answers
        assert responses[1] == {"id": 7, "ok": True,
                                "result": {"pong": True, "protocol": 1}}

    def test_non_object_request_rejected(self, gateway_endpoint):
        responses = _raw_lines(gateway_endpoint.address, [b"[1, 2, 3]\n"])
        assert responses[0]["error"]["type"] == "bad-request"
        assert "JSON object" in responses[0]["error"]["message"]

    def test_unknown_op_and_unknown_field(self, gateway_endpoint):
        responses = _raw_lines(gateway_endpoint.address, [
            b'{"op": "launch-missiles", "id": 1}\n',
            b'{"op": "ping", "id": 2, "flavor": "lemon"}\n',
        ])
        assert [r["error"]["type"] for r in responses] == ["bad-request"] * 2
        assert "unknown op" in responses[0]["error"]["message"]
        assert "flavor" in responses[1]["error"]["message"]

    def test_malformed_query_spec_rejected(self, gateway_endpoint):
        bad_query = json.dumps({
            "op": "query", "id": 3, "sigma": [[1.0, 0.0], [0.0, 1.0]],
            "query": {"a": [0.0, 0.0], "b": [1.0, 1.0], "warp": 9},
        }).encode() + b"\n"
        responses = _raw_lines(gateway_endpoint.address, [bad_query])
        assert responses[0]["error"]["type"] == "bad-request"
        assert "warp" in responses[0]["error"]["message"]

    def test_oversized_line_errors_then_closes(self, gateway_endpoint):
        huge = b'{"op": "ping", "pad": "' + b"x" * (300 * 1024) + b'"}\n'
        with socket.create_connection(gateway_endpoint.address, timeout=30) as sock:
            sock.sendall(huge)
            with contextlib.suppress(OSError):
                # the server may already have closed the stream (EPIPE) —
                # either way the follow-up ping must never be answered
                sock.sendall(b'{"op": "ping", "id": 9}\n')
                sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        responses = [json.loads(line) for line in data.splitlines() if line]
        # exactly one response: the oversized error; the stream cannot be
        # re-synchronized after an overlong line, so the connection closes
        assert len(responses) == 1
        assert responses[0]["error"]["type"] == "bad-request"
        assert "oversized" in responses[0]["error"]["message"]

    def test_disconnect_mid_request_leaves_gateway_healthy(self, gateway_endpoint):
        # vanish after a partial line (no trailing newline)
        with socket.create_connection(gateway_endpoint.address, timeout=30) as sock:
            sock.sendall(b'{"op": "ping", "id"')
        # a fresh connection is served normally afterwards
        with ServeClient(*gateway_endpoint.address) as client:
            assert client.ping()["pong"] is True

    def test_query_without_covariance_rejected(self, gateway_endpoint):
        with ServeClient(*gateway_endpoint.address) as client:
            with pytest.raises(GatewayError, match="needs a covariance") as info:
                client.call("query", query={"a": [0.0], "b": [1.0]})
            assert info.value.kind == "bad-request"

    def test_unknown_fingerprint_rejected(self, gateway_endpoint):
        with ServeClient(*gateway_endpoint.address) as client:
            with pytest.raises(GatewayError, match="register") as info:
                client.call("query", query={"a": [0.0], "b": [1.0]},
                            fingerprint="ff" * 32)
            assert info.value.kind == "bad-request"

    def test_mismatched_sigma_fingerprint_pair_rejected(self, gateway_endpoint):
        with ServeClient(*gateway_endpoint.address) as client:
            with pytest.raises(GatewayError, match="mismatched") as info:
                client.call("query", query={"a": [0.0, 0.0], "b": [1.0, 1.0]},
                            sigma=[[1.0, 0.0], [0.0, 1.0]],
                            fingerprint="ff" * 32)
            assert info.value.kind == "bad-request"

    def test_non_square_sigma_rejected(self, gateway_endpoint):
        with ServeClient(*gateway_endpoint.address) as client:
            with pytest.raises(GatewayError, match="square") as info:
                client.register([[1.0, 0.0]])
            assert info.value.kind == "bad-request"


class TestGatewayServing:
    def test_query_bit_identical_to_in_process_submit(self, gateway_endpoint):
        sigma = _spd(5, seed=21)
        query = MVNQuery([-np.inf] * 5, [0.5] * 5, n_samples=300, rng=4)
        expected = gateway_endpoint.gateway.broker.submit(query, sigma).result()
        with ServeClient(*gateway_endpoint.address) as client:
            inline = client.query(query, sigma=sigma)
            fingerprint = client.register(sigma)
            registered = client.query(query, fingerprint=fingerprint)
        for served in (inline, registered):
            assert served.probability == expected.probability
            assert served.error == expected.error
            assert served.n_samples == expected.n_samples

    def test_register_returns_content_fingerprint(self, gateway_endpoint):
        sigma = _spd(4, seed=8)
        with ServeClient(*gateway_endpoint.address) as client:
            assert client.register(sigma) == sigma_fingerprint(sigma)

    def test_stats_roundtrip_preserves_max_batch(self, gateway_endpoint):
        with ServeClient(*gateway_endpoint.address) as client:
            stats = client.stats()
        broker = gateway_endpoint.gateway.broker
        assert isinstance(stats, ServeStats)
        assert stats.max_batch == broker.config.max_batch
        assert stats.completed >= 1

    def test_stats_op_reports_latency_quantiles(self, gateway_endpoint):
        with ServeClient(*gateway_endpoint.address) as client:
            client.query(MVNQuery([-np.inf] * 3, [0.5] * 3, n_samples=100, rng=1),
                         sigma=_spd(3, seed=12))
            stats = client.stats()
        for quantiles in (stats.queue_seconds, stats.service_seconds):
            assert set(quantiles) == {"p50", "p95", "p99"}
            assert 0.0 <= quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert stats.service_seconds["p99"] > 0.0

    def test_concurrent_clients_multiplex(self, gateway_endpoint):
        sigma = _spd(4, seed=5)
        clients = [ServeClient(*gateway_endpoint.address) for _ in range(4)]
        try:
            fingerprints = [client.register(sigma) for client in clients]
            assert len(set(fingerprints)) == 1
            results = [
                client.query(
                    MVNQuery([-np.inf] * 4, [0.5] * 4, n_samples=200, rng=2),
                    fingerprint=fingerprints[0],
                )
                for client in clients
            ]
            assert len({r.probability for r in results}) == 1
        finally:
            for client in clients:
                client.close()

    def test_double_start_rejected(self, gateway_endpoint):
        with pytest.raises(RuntimeError, match="already started"):
            gateway_endpoint.start()


class TestGatewayTeardown:
    def test_loop_teardown_with_idle_client_logs_nothing(self):
        """Stopping the loop while a client sits connected and idle (Ctrl-C
        on ``repro serve``) cancels the handler's pending read; the handler
        must still finish normally, or the streams done-callback logs a
        ``CancelledError`` traceback through the loop's exception handler."""
        handled = []
        client = socket.socket()
        client.setblocking(False)

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda loop, context: handled.append(context))
            gateway = await ServeGateway(_StubBroker()).start()
            await loop.sock_connect(client, gateway.address)
            await loop.sock_sendall(client, b'{"op": "ping", "id": 1}\n')
            reply = b""
            while not reply.endswith(b"\n"):
                reply += await loop.sock_recv(client, 4096)
            assert json.loads(reply)["ok"] is True
            # return with the client still connected: asyncio.run's teardown
            # cancels the handler while it waits for the next line

        with client:
            asyncio.run(main())
        assert handled == []
