"""The network front door: a JSON-lines asyncio gateway over the broker.

:class:`ServeGateway` wraps one :class:`repro.serve.QueryBroker` in an
``asyncio.start_server`` endpoint speaking a newline-delimited JSON
protocol: one request object per line in, one response object per line
out.  Requests ride the broker's existing ``submit_async`` path, so a
network query is micro-batched, sharded and executed exactly like an
in-process one — the gateway adds transport, never semantics.

Protocol (every request carries ``op`` and an optional ``id`` echoed back):

* ``{"op": "ping", "id": 1}`` — liveness; returns the protocol version.
* ``{"op": "register", "sigma": [[...]]}`` — publish a covariance once;
  returns its content ``fingerprint`` for later queries (the gateway keeps
  a bounded LRU of registered matrices, mirroring the shard roster rule).
* ``{"op": "query", "query": {...}, "fingerprint": "..."}`` — run one
  :class:`repro.query.MVNQuery` (``MVNQuery.to_dict`` wire form) against a
  registered covariance; ``"sigma"`` inline instead of ``"fingerprint"``
  is accepted for one-shot callers.  Returns ``MVNResult.to_dict``.
* ``{"op": "stats"}`` — the broker's :meth:`~repro.serve.ServeStats.as_dict`
  snapshot plus gateway connection counters.

Responses are ``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": {"type": ..., "message": ...}}`` with
error types ``bad-request`` (malformed JSON, unknown op/field, validation
failure), ``overloaded`` (broker backpressure) and ``server-error``.  A
malformed line never wedges the connection: the reader task answers and
keeps reading (only an oversized line — which cannot be re-synchronized —
closes the connection after the error response).

:class:`ServeClient` is the minimal blocking client used by the tests,
docs and CLI examples; :class:`BackgroundGateway` runs a gateway on a
daemon thread with its own event loop so synchronous code (and doctests)
can stand up a live endpoint in one line.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import threading

import numpy as np

from repro.batch.cache import sigma_fingerprint
from repro.mvn.result import MVNResult
from repro.query import MVNQuery
from repro.serve.broker import ServeError, ServeOverloadedError
from repro.serve.pool import ModelRoster
from repro.serve.stats import ServeStats
from repro.utils.validation import check_square

__all__ = ["ServeGateway", "ServeClient", "BackgroundGateway", "GatewayError",
           "PROTOCOL_VERSION"]

#: wire-protocol version, echoed by ``ping``
PROTOCOL_VERSION = 1

#: default per-line size limit (a 1024 x 1024 float64 Sigma in JSON is
#: ~20 MB; 64 MiB accommodates it with headroom while bounding memory)
DEFAULT_MAX_LINE_BYTES = 64 * 1024 * 1024

#: accepted top-level request fields per operation
_ENVELOPES = {
    "ping": {"op", "id"},
    "stats": {"op", "id"},
    "register": {"op", "id", "sigma"},
    "query": {"op", "id", "query", "sigma", "fingerprint"},
}


class GatewayError(RuntimeError):
    """A structured error response from the gateway (client side).

    ``kind`` carries the protocol error type (``bad-request``,
    ``overloaded``, ``server-error`` or ``disconnected``).
    """

    def __init__(self, message: str, kind: str = "server-error") -> None:
        super().__init__(message)
        self.kind = kind


class _BadRequest(ValueError):
    """Internal: request rejected before reaching the broker."""


class ServeGateway:
    """Asyncio JSON-lines server in front of one :class:`QueryBroker`.

    Parameters
    ----------
    broker : QueryBroker
        The (already running) broker every query is submitted to.
    host, port : optional
        Bind address; ``port=0`` (default) picks a free port, exposed as
        :attr:`address` after :meth:`start`.
    max_line_bytes : int
        Hard per-line size limit; longer lines produce an ``oversized``
        ``bad-request`` response and close the connection.
    registry_entries : int
        Capacity of the gateway's registered-sigma LRU.
    """

    def __init__(self, broker, host: str = "127.0.0.1", port: int = 0, *,
                 max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
                 registry_entries: int = 64) -> None:
        self.broker = broker
        self.host = host
        self.port = port
        self.max_line_bytes = int(max_line_bytes)
        self._sigmas = ModelRoster(registry_entries)
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        self.connections = 0
        self.requests = 0
        self.errors = 0

    # -- lifecycle -------------------------------------------------------------------
    async def start(self) -> "ServeGateway":
        """Bind and start accepting connections; resolves :attr:`address`."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.max_line_bytes,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self

    async def close(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled (CLI entry point)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ServeGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- connection handling ---------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # line exceeded max_line_bytes: the stream cannot be
                    # re-synchronized, so answer once and drop the client
                    self.errors += 1
                    await self._send(writer, write_lock, {
                        "id": None, "ok": False,
                        "error": {"type": "bad-request",
                                  "message": "oversized request line "
                                             f"(limit {self.max_line_bytes} bytes)"},
                    })
                    break
                except asyncio.CancelledError:
                    # loop teardown (Ctrl-C on ``repro serve``) cancelled an
                    # idle client's read: close below and finish normally,
                    # as around wait_closed, so Python 3.11's streams
                    # done-callback has no cancelled handler to log
                    break
                if not line or not line.endswith(b"\n"):
                    # EOF: clean disconnect, or a partial line from a client
                    # that vanished mid-request — either way, just close
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            for task in pending:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - client raced us
                pass
            except asyncio.CancelledError:
                # loop teardown cancelled the graceful close; the transport
                # is already closing and nothing follows this statement, so
                # finishing normally is safe — and it stops Python 3.11's
                # streams done-callback from logging the cancellation
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        request_id = None
        try:
            try:
                message = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"malformed JSON: {exc}") from None
            if not isinstance(message, dict):
                raise _BadRequest("request must be a JSON object")
            request_id = message.get("id")
            self.requests += 1
            result = await self._dispatch(message)
            await self._send(writer, write_lock,
                             {"id": request_id, "ok": True, "result": result})
        except asyncio.CancelledError:  # connection torn down
            raise
        except (_BadRequest, ValueError, TypeError, KeyError) as exc:
            await self._send_error(writer, write_lock, request_id,
                                   "bad-request", str(exc) or repr(exc))
        except ServeOverloadedError as exc:
            await self._send_error(writer, write_lock, request_id,
                                   "overloaded", str(exc))
        except (ServeError, RuntimeError) as exc:
            await self._send_error(writer, write_lock, request_id,
                                   "server-error", str(exc))
        except Exception as exc:  # noqa: BLE001 - never kill the connection
            await self._send_error(writer, write_lock, request_id,
                                   "server-error", f"{type(exc).__name__}: {exc}")

    async def _dispatch(self, message: dict):
        op = message.get("op")
        envelope = _ENVELOPES.get(op)
        if envelope is None:
            raise _BadRequest(
                f"unknown op {op!r}; expected one of {sorted(_ENVELOPES)}"
            )
        unknown = set(message) - envelope
        if unknown:
            raise _BadRequest(
                f"unknown field(s) for op {op!r}: {sorted(unknown)}"
            )
        if op == "ping":
            return {"pong": True, "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return {
                "stats": self.broker.stats().as_dict(),
                "n_shards": self.broker.n_shards,
                "gateway": {"connections": self.connections,
                            "requests": self.requests,
                            "errors": self.errors},
            }
        if op == "register":
            fingerprint, sigma = self._registered(message, required=True)
            return {"fingerprint": fingerprint, "n": int(sigma.shape[0])}
        # op == "query"
        spec = message.get("query")
        if not isinstance(spec, dict):
            raise _BadRequest('op "query" requires a "query" object '
                              "(MVNQuery.to_dict form)")
        query = MVNQuery.from_dict(spec)
        sigma = self._query_sigma(message)
        future = self.broker.submit_async(query, sigma, timeout=0)
        result = await future
        if not isinstance(result, MVNResult):  # pragma: no cover - thread shards
            result = MVNResult.from_dict(result)
        return result.to_dict()

    def _registered(self, message: dict, required: bool):
        payload = message.get("sigma")
        if payload is None:
            if required:
                raise _BadRequest('op "register" requires a "sigma" matrix')
            return None, None
        sigma = check_square(payload, "sigma")
        fingerprint = sigma_fingerprint(sigma)
        self._sigmas.insert(fingerprint, sigma)
        return fingerprint, sigma

    def _query_sigma(self, message: dict) -> np.ndarray:
        fingerprint, sigma = self._registered(message, required=False)
        if sigma is not None:
            if message.get("fingerprint") not in (None, fingerprint):
                raise _BadRequest(
                    'pass either "sigma" or "fingerprint", not a mismatched pair'
                )
            return sigma
        fingerprint = message.get("fingerprint")
        if fingerprint is None:
            raise _BadRequest(
                'op "query" needs a covariance: inline "sigma" or a '
                'registered "fingerprint"'
            )
        sigma = self._sigmas.get(str(fingerprint))
        if sigma is None:
            raise _BadRequest(
                f"unknown fingerprint {str(fingerprint)[:16]!r}...; "
                'register the covariance first (op "register")'
            )
        return sigma

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, write_lock: asyncio.Lock,
                    payload: dict) -> None:
        data = (json.dumps(payload) + "\n").encode()
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):  # client went away mid-reply
                pass

    async def _send_error(self, writer, write_lock, request_id,
                          kind: str, message: str) -> None:
        self.errors += 1
        await self._send(writer, write_lock, {
            "id": request_id, "ok": False,
            "error": {"type": kind, "message": message},
        })


class ServeClient:
    """Minimal blocking JSON-lines client for :class:`ServeGateway`.

    One socket, sequential request/response (the gateway itself handles
    concurrent clients; use several clients — or raw asyncio — for
    pipelining).  Usable as a context manager.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        self._ids = itertools.count(1)

    # -- plumbing --------------------------------------------------------------------
    def call(self, op: str, **payload) -> dict:
        """Send one raw operation and return its ``result`` payload."""
        request_id = next(self._ids)
        line = json.dumps({"id": request_id, "op": op, **payload}) + "\n"
        self._writer.write(line.encode())
        self._writer.flush()
        response = self._reader.readline()
        if not response:
            raise GatewayError("gateway closed the connection",
                               kind="disconnected")
        message = json.loads(response)
        if message.get("ok"):
            return message["result"]
        error = message.get("error") or {}
        raise GatewayError(error.get("message", "unknown gateway error"),
                           kind=error.get("type", "server-error"))

    # -- operations ------------------------------------------------------------------
    def ping(self) -> dict:
        """Liveness check; returns the protocol version payload."""
        return self.call("ping")

    def register(self, sigma) -> str:
        """Publish a covariance; returns its content fingerprint."""
        sigma = np.asarray(sigma, dtype=np.float64)
        return self.call("register", sigma=sigma.tolist())["fingerprint"]

    def query(self, query: MVNQuery, *, sigma=None,
              fingerprint: str | None = None) -> MVNResult:
        """Run one :class:`MVNQuery`; returns the decoded :class:`MVNResult`."""
        if not isinstance(query, MVNQuery):
            raise TypeError("query must be an MVNQuery; build one with "
                            "MVNQuery(a, b, ...)")
        payload: dict = {"query": query.to_dict()}
        if sigma is not None:
            payload["sigma"] = np.asarray(sigma, dtype=np.float64).tolist()
        elif fingerprint is not None:
            payload["fingerprint"] = fingerprint
        else:
            raise TypeError("query() needs sigma= or fingerprint=")
        return MVNResult.from_dict(self.call("query", **payload))

    def stats(self) -> ServeStats:
        """The broker's serving counters, decoded to :class:`ServeStats`."""
        return ServeStats.from_dict(self.call("stats")["stats"])

    def close(self) -> None:
        """Close the socket (idempotent)."""
        for closer in (self._writer, self._reader, self._sock):
            try:
                closer.close()
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class BackgroundGateway:
    """A :class:`ServeGateway` on a daemon thread with its own event loop.

    Lets synchronous code (tests, docs, notebooks) stand up a live network
    endpoint around an existing broker::

        with BackgroundGateway(broker) as gateway:
            with ServeClient(*gateway.address) as client:
                ...

    The thread owns the loop; ``close()`` (or context-manager exit) stops
    the server and joins the thread.  The broker's lifecycle stays with the
    caller.
    """

    def __init__(self, broker, host: str = "127.0.0.1", port: int = 0,
                 **gateway_kwargs) -> None:
        self.gateway = ServeGateway(broker, host, port, **gateway_kwargs)
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (available once started)."""
        address = self.gateway.address
        if address is None:
            raise RuntimeError("gateway is not running")
        return address

    def start(self, timeout: float = 10.0) -> "BackgroundGateway":
        """Start the loop thread and wait until the gateway is bound."""
        if self._thread is not None:
            raise RuntimeError("gateway thread already started")

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.gateway.start()
            except BaseException as exc:  # surface bind errors to the caller
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            try:
                await self._stop.wait()
            finally:
                await self.gateway.close()

        def runner() -> None:
            try:
                asyncio.run(main())
            except BaseException:  # noqa: BLE001 - reported via _startup_error
                pass

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-serve-gateway")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("gateway failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._startup_error!r}"
            )
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop the server and join the loop thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "BackgroundGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
