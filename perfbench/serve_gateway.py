"""Workload ``serve_gateway``: the whole serving path, a query in through the
gateway and a result out.

A gateway server (``server.py``: QueryBroker + ServeGateway, ``method="auto"``,
one thread shard) runs in its own process.  This process is the load
generator: one client driving it over 2 connections with 8 closed-loop
callers.  Three of every four requests are a single one-sided CDF query;
the fourth is a map tile of 8 queries sent back to back.  The queries hit
4 registered n = 256 covariances with N = 256 and one shared seed, so
requests on the same covariance can micro-batch.

Why: it is the end-to-end path of the serving stack, where per-request
Python costs about half the service time; the map tiles reach the fused
batched sweep.  Broker, gateway and sweep-schedule changes show here;
factorization changes cannot, because factorization happens at set-up.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import subprocess
import sys
import time

import numpy as np

from common import BENCH_DIR, MAX_MESSAGES, OUT_DIR, child_env
from repro import MVNSolver, SolverConfig
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.query import MVNQuery
from repro.serve.net import ServeClient
from server import SOLVER

GRID = 16
RANGES = (0.05, 0.1, 0.15, 0.25)
NUGGET = 1e-6
N_SAMPLES = 256
CONNECTIONS = 2
CALLERS = 8
TILE = 8
#: queries per group of four requests (three singles and one tile)
GROUP_QUERIES = 3 + TILE
PATTERN_SEED = 20240527
NOMINAL_QUERIES_PER_S = 90.0
WARMUP_GROUPS = 4
CHECK_EVERY = 16
#: a sampled reply must match the direct model within this many combined
#: standard errors
CHECK_Z = 4.0
STOP_TIMEOUT = 60.0


class Query:
    __slots__ = ("tag", "cov", "a", "b", "line")

    def __init__(self, tag, cov, a, b, line) -> None:
        self.tag, self.cov, self.a, self.b, self.line = tag, cov, a, b, line


def make_inputs(seed: int, groups: int) -> dict:
    """Covariances and the request stream (groups of 4 requests)."""
    locations = Geometry.regular_grid(GRID, GRID).locations
    sigmas = [build_covariance(ExponentialKernel(1.0, r), locations, nugget=NUGGET) for r in RANGES]
    n = locations.shape[0]
    lower = np.full(n, -np.inf)
    rng = np.random.default_rng([seed, 2])
    # the load pattern (where the tile falls in each group, which covariance
    # each request hits) is one fixed random sequence and the seed draws only
    # the limits: with a seeded pattern the tail moved 17% between seeds
    # against 7% between repeats of one seed, and a strictly periodic pattern
    # let the callers lock into two different phases (p50 spread 18%)
    pattern = np.random.default_rng(PATTERN_SEED)
    requests: list[list[Query]] = []
    tag = 0
    for _ in range(groups):
        tile_at = int(pattern.integers(4))
        for position in range(4):
            cov = int(pattern.integers(len(sigmas)))
            if position == tile_at:
                levels = 1.75 + 0.25 * np.arange(TILE)
                uppers = [np.full(n, level) for level in levels]
            else:
                uppers = [2.5 + 0.25 * rng.standard_normal(n)]
            request = []
            for upper in uppers:
                request.append(Query(tag, cov, lower, upper, None))
                tag += 1
            requests.append(request)
    return {"sigmas": sigmas, "requests": requests}


def encode(query: Query, fingerprint: str, seed: int) -> bytes:
    spec = MVNQuery(query.a, query.b, n_samples=N_SAMPLES, rng=seed, tag=query.tag)
    message = {"id": query.tag, "op": "query", "query": spec.to_dict(), "fingerprint": fingerprint}
    return (json.dumps(message) + "\n").encode()


class Server:
    """The server process and its stdin/stdout control channel."""

    def __init__(self, spans_path=None) -> None:
        command = [sys.executable, str(BENCH_DIR / "server.py")]
        if spans_path is not None:
            command += ["--trace", str(spans_path)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), text=True)
        try:
            self.ready = self._read()
            if not self.ready.get("ready"):
                raise RuntimeError(f"server failed to start: {self.ready}")
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait(timeout=STOP_TIMEOUT)}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Stop and reap the server (clients must have disconnected first)."""
        try:
            self.command("stop")
            self.proc.wait(timeout=STOP_TIMEOUT)
        finally:
            self.close()

    def close(self) -> None:
        """Kill the server if it still runs, reap it and close the pipes."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Connection:
    """One pipelined JSON-lines connection: replies are matched by id."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.pending: dict = {}
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = time.perf_counter()
            message = json.loads(line)
            future = self.pending.pop(message.get("id"), None)
            if future is not None:
                future.set_result((message, received, len(line)))
        for future in self.pending.values():
            future.set_exception(ConnectionError("gateway closed the connection"))

    async def send(self, ids, payload: bytes):
        loop = asyncio.get_running_loop()
        futures = []
        for request_id in ids:
            future = loop.create_future()
            self.pending[request_id] = future
            futures.append(future)
        sent = time.perf_counter()
        self.writer.write(payload)
        await self.writer.drain()
        return sent, await asyncio.gather(*futures, return_exceptions=True)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.task


async def drive(port: int, phases: list[list[list[Query]]], records: dict, stats_hook) -> list[float]:
    """Closed-loop callers over shared request streams, one phase at a time.

    ``stats_hook(connection, phase)`` runs between phases (off the clock).
    Returns each phase's window length.
    """
    connections = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        connections.append(Connection(reader, writer))

    async def caller(connection, stream) -> None:
        for request in stream:
            payload = b"".join(query.line for query in request)
            sent, replies = await connection.send([q.tag for q in request], payload)
            for query, reply in zip(request, replies):
                if isinstance(reply, BaseException):
                    records[query.tag] = {"ok": False, "error": repr(reply)}
                    continue
                message, received, resp_bytes = reply
                records[query.tag] = {
                    "latency": received - sent, "ok": bool(message.get("ok")),
                    "req_bytes": len(query.line), "resp_bytes": resp_bytes,
                    "result": message.get("result"), "error": message.get("error"),
                }

    windows = []
    try:
        for phase_index, requests in enumerate(phases):
            await stats_hook(connections[0], phase_index)
            stream = iter(requests)
            start = time.perf_counter()
            await asyncio.gather(*(caller(connections[c % CONNECTIONS], stream) for c in range(CALLERS)))
            windows.append(time.perf_counter() - start)
        await stats_hook(connections[0], len(phases))
    finally:
        for connection in connections:
            await connection.close()
    return windows


async def fetch_stats(connection: Connection) -> dict:
    request_id = f"stats-{time.perf_counter_ns()}"
    payload = (json.dumps({"id": request_id, "op": "stats"}) + "\n").encode()
    _, (reply,) = await connection.send([request_id], payload)
    if isinstance(reply, BaseException):
        raise reply
    return reply[0]["result"]["stats"]


def run(args) -> dict:
    """Set-up is the server's import and start (timed in ``server.py``) plus
    this client's registrations and warm-up queries; input generation comes
    before it and is not timed."""
    seed = args.seed
    timed_groups = max(4, round(args.seconds * NOMINAL_QUERIES_PER_S / GROUP_QUERIES))
    data = make_inputs(seed, WARMUP_GROUPS + timed_groups)
    sigmas = data["sigmas"]

    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_serve_gateway_{seed}.json"
    server = Server(spans_path)
    try:
        client_start = time.perf_counter()
        with ServeClient("127.0.0.1", server.ready["port"]) as client:
            fingerprints = [client.register(sigma) for sigma in sigmas]
            # warm-up factorizations: the shard factorizes on first contact
            for sigma_index, fingerprint in enumerate(fingerprints):
                n = sigmas[sigma_index].shape[0]
                client.query(MVNQuery(np.full(n, -np.inf), np.full(n, 2.0), n_samples=N_SAMPLES, rng=seed),
                             fingerprint=fingerprint)
        setup_s = server.ready["import_s"] + server.ready["start_s"] + (time.perf_counter() - client_start)
        if args.setup_only:
            server.stop()
            return {"setup_s": setup_s}

        for request in data["requests"]:
            for query in request:
                query.line = encode(query, fingerprints[query.cov], seed)
        split = 4 * WARMUP_GROUPS
        phases = [data["requests"][:split], data["requests"][split:]]
        timed_tags = [q.tag for request in phases[1] for q in request]
        records: dict = {}
        marks: dict = {}

        async def stats_hook(connection, phase_index):
            marks[phase_index] = {"stats": await fetch_stats(connection), "server": server.command("mark")}

        windows = asyncio.run(drive(server.ready["port"], phases, records, stats_hook))
        server.stop()
    except BaseException:
        server.close()
        raise

    sampled = timed_tags[::CHECK_EVERY]
    if args.corrupt:  # self-test only: falsify every sampled reply
        for tag in sampled:
            served = records[tag]["result"]
            served["probability"] += 10 * served["error"] + 0.01
    before, after = marks[1], marks[2]
    expected = sum(len(request) for request in data["requests"])
    failures = [f"query {tag}: {rec.get('error')}" for tag, rec in sorted(records.items()) if not rec["ok"]]
    failed = len(failures)
    if len(records) != expected:
        failures.append(f"{expected - len(records)} queries never answered")
        failed += expected - len(records)
    check_failures, worst_share = check_replies(data, records, sampled, seed)
    failures.extend(check_failures)
    failed += len(check_failures)
    timed = [records[tag] for tag in timed_tags if records.get(tag, {}).get("ok")]
    window = windows[1]
    result = {
        "setup_s": setup_s,
        "import_s": server.ready["import_s"],
        "corrupted": len(sampled) if args.corrupt else 0,
        "ops": len(timed_tags),
        "attempted": expected,
        "failed": failed,
        "failures": failures[:MAX_MESSAGES],
        "latencies_ms": [rec["latency"] * 1e3 for rec in timed],
        "window_s": window,
        "program_cpu_s": after["server"]["cpu_s"] - before["server"]["cpu_s"],
        "peak_rss_mb": after["server"]["peak_rss_mb"],
        "digest": digest(records),
        "summary": serve_summary(timed, before["stats"], after["stats"]),
    }
    result["summary"]["check_worst_share"] = worst_share
    if args.trace:
        result["layers"] = traced_layers(spans_path, records, timed_tags, window, result["summary"])
    return result


def check_replies(data: dict, records: dict, sampled: list[int], seed: int) -> tuple[list[str], float]:
    """Sampled replies against a direct Model.probability (off the clock).

    Returns the failures and the largest share of its allowance a sampled
    reply used.
    """
    failures = []
    worst = 0.0
    queries = {q.tag: q for request in data["requests"] for q in request}
    with MVNSolver(SolverConfig(**SOLVER)) as solver:
        models = [solver.model(sigma) for sigma in data["sigmas"]]
        for tag in sampled:
            record = records.get(tag)
            if record is None or not record["ok"]:
                continue
            query = queries[tag]
            direct = models[query.cov].probability(query.a, query.b, n_samples=N_SAMPLES, rng=seed)
            served = record["result"]
            allowed = CHECK_Z * float(np.hypot(served["error"], direct.error)) + 1e-12
            share = abs(served["probability"] - direct.probability) / allowed
            worst = max(worst, share)
            if share > 1.0:
                failures.append(f"query {tag}: served {served['probability']:.6g} vs direct "
                                f"{direct.probability:.6g} (allowed {allowed:.2g})")
    return failures, worst


def digest(records: dict) -> str:
    hasher = hashlib.sha256()
    for tag in sorted(records):
        result = records[tag].get("result") or {}
        hasher.update(np.array([result.get("probability", np.nan), result.get("error", np.nan)]).tobytes())
    return hasher.hexdigest()


def serve_summary(timed: list[dict], before: dict, after: dict) -> dict:
    serve = [rec["result"]["details"]["serve"] for rec in timed]
    batches = after["batches"] - before["batches"]
    finished = (after["completed"] + after["failed"]) - (before["completed"] + before["failed"])
    return {
        # the dispatcher's share of the queue wait (batch window included);
        # the traced run measures the whole wait, shard queue included
        "dispatch_wait_ms": 1e3 * sum(s["queue_seconds"] for s in serve) / max(len(serve), 1),
        "batched_frac": sum(1 for s in serve if s["batch_size"] >= 2) / max(len(serve), 1),
        "batch_size_mean": finished / batches if batches else 0.0,
        "failed": after["failed"] - before["failed"],
        "rejected": after["rejected"] - before["rejected"],
        "req_bytes": sum(rec["req_bytes"] for rec in timed) / max(len(timed), 1),
        "resp_bytes": sum(rec["resp_bytes"] for rec in timed) / max(len(timed), 1),
    }


def traced_layers(spans_path, records: dict, timed_tags: list[int], window: float, summary: dict) -> dict:
    """Per-op breakdown of the server spans, keyed to client latencies."""
    import tracing

    with open(spans_path) as handle:
        spans = [tracing.Span.from_dict(entry) for entry in json.load(handle)]
    index = tracing.SpanIndex(spans)
    by_op: dict = {}
    for span in spans:
        if span.parent == 0 and span.op is not None:
            by_op.setdefault(span.op, {})[span.name] = span
    ops, wires, decodes, encodes, submits, queues = [], [], [], [], [], []
    batches: dict = {}
    for tag in timed_tags:
        own = by_op.get(tag, {})
        record = records.get(tag)
        needed = ("MVNQuery.from_dict", "QueryBroker.submit", "broker.window", "MVNResult.to_dict")
        if record is None or not record["ok"] or any(name not in own for name in needed):
            continue
        decode, submit, broker, encode_span = (own[name] for name in needed)
        batch = index.by_id.get(broker.attrs.get("batch"))
        latency = record["latency"]
        wire = latency - broker.seconds
        roots = [decode, submit, encode_span] + ([batch] if batch is not None else [])
        queued = broker.seconds - submit.seconds - (batch.seconds if batch is not None else 0.0)
        fixed = {"serve.net": wire - decode.seconds - encode_span.seconds, "serve": queued}
        ops.append(tracing.op_breakdown(index, None, extra_roots=roots, op_seconds=latency, fixed=fixed))
        wires.append(wire)
        decodes.append(decode.seconds)
        encodes.append(encode_span.seconds)
        submits.append(submit.seconds)
        queues.append(queued)
        if batch is not None:
            batches[batch.id] = batch
    seen: dict = {}
    for op in ops:
        for span in op["spans"]:
            seen[span.id] = span
    metrics = tracing.layer_metrics(ops, index, list(seen.values()))
    metrics.update(tracing.tile_metrics(spans))
    count = max(len(ops), 1)
    metrics.update({
        "serve.net.wire_ms": 1e3 * sum(wires) / count,
        "serve.net.decode_ms": 1e3 * sum(decodes) / count,
        "serve.net.encode_ms": 1e3 * sum(encodes) / count,
        "serve.net.req_bytes": summary["req_bytes"],
        "serve.net.resp_bytes": summary["resp_bytes"],
        "serve.submit_ms": 1e3 * sum(submits) / count,
        "serve.queue_wait_ms": 1e3 * sum(queues) / count,
        "serve.batch_size_mean": summary["batch_size_mean"],
        "serve.batched_frac": summary["batched_frac"],
        "serve.shard_busy_frac": sum(b.seconds for b in batches.values()) / window,
        "serve.failed": summary["failed"],
        "serve.rejected": summary["rejected"],
        "update.retained_mb_per_step": 0.0,  # the serving path makes no updates
    })
    table = tracing.layer_table(ops, index)
    table["traced_ops"] = len(ops)
    return {"metrics": metrics, "table": table}
