"""Gateway server launcher of the ``serve_gateway`` workload.

Builds the server the way ``repro serve`` does -- a
:class:`repro.serve.QueryBroker` behind a :class:`repro.serve.net.ServeGateway`
-- with ``method="auto"`` and one thread shard, in a process of its own.
With ``--trace`` the benchmark's wrappers are installed here, inside the
server, before the broker starts.

Control channel (one JSON line answered per command on stdout):

* start-up prints ``{"ready": ..., "port": ..., "import_s": ..., "start_s": ...}``;
* ``mark`` on stdin prints this process's CPU seconds and peak RSS;
* ``stop`` (or end of stdin) closes the gateway and the broker, writes the
  spans when tracing, prints a last line and exits.

Usage: ``python perfbench/server.py [--trace SPANS_PATH]``
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import asyncio  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from common import cpu_seconds, emit, peak_rss_mb  # noqa: E402

#: evaluation settings, shared with the workload's reference solver
SOLVER = {"method": "auto", "n_samples": 256}
#: serving settings: ``repro serve`` defaults with one thread shard
SERVE = {"n_shards": 1, "worker_mode": "thread"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="write spans to this path on stop")
    args = parser.parse_args(argv)

    from repro import SolverConfig
    from repro.serve import QueryBroker, ServeConfig
    import repro.serve.net  # noqa: F401 - part of the timed import
    import_s = time.perf_counter() - _START

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    started = time.perf_counter()
    broker = QueryBroker(ServeConfig(**SERVE), SolverConfig(**SOLVER))
    try:
        asyncio.run(serve(broker, import_s, started))
    finally:
        broker.close()
    if tracer is not None:
        tracer.dump(args.trace)
    emit({"stopped": True, "cpu_s": cpu_seconds(), "peak_rss_mb": peak_rss_mb()})
    return 0


async def serve(broker, import_s: float, started: float) -> None:
    from repro.serve.net import ServeGateway

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    async with ServeGateway(broker, host="127.0.0.1", port=0) as gateway:
        emit({"ready": True, "port": gateway.address[1], "import_s": import_s,
              "start_s": time.perf_counter() - started})

        def control() -> None:
            for line in sys.stdin:
                command = line.strip()
                if command == "mark":
                    emit({"cpu_s": cpu_seconds(), "peak_rss_mb": peak_rss_mb()})
                elif command == "stop":
                    break
            loop.call_soon_threadsafe(stop.set)

        reader = threading.Thread(target=control, name="perfbench-control", daemon=True)
        reader.start()
        await stop.wait()
    reader.join(timeout=5)


if __name__ == "__main__":
    sys.exit(main())
