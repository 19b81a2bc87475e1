"""One workload in one fresh process: set-up, warm-up, timed ops, checks.

Started by ``run.py`` as::

    python perfbench/worker.py <workload> --seed N --seconds S [--trace] [--setup-only]

and prints one JSON line with the raw measurements.  In the single-caller
workloads the set-up clock starts before the package is imported and
pauses while the benchmark generates its own inputs; ``serve_gateway``
times the set-up of its server and client itself (``serve_gateway.run``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from common import (
    MAX_MESSAGES,
    OUT_DIR,
    WORKLOADS,
    Stopwatch,
    check_package_origin,
    cpu_seconds,
    emit,
    peak_rss_mb,
    provenance,
)


def closed_loop(work, tracer) -> dict:
    """Run ``work.op`` one op at a time: warm-up ops, then the timed window."""
    outputs: dict = {}
    latencies: list[float] = []
    failures: list[str] = []
    window_start = cpu_start = 0.0
    total = work.n_warmup + work.n_timed
    for index in range(total):
        if index == work.n_warmup:
            window_start, cpu_start = time.perf_counter(), cpu_seconds()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = work.op(index) if tracer is None else tracer.call("op", work.op, (index,), {})
        except Exception as exc:  # noqa: BLE001 - an op that raises is a counted failure
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        if index >= work.n_warmup:
            latencies.append(elapsed)
            outputs[index] = out
    window = time.perf_counter() - window_start
    return {
        "outputs": outputs,
        "latencies": latencies,
        "failures": failures,
        "window_s": window,
        "cpu_s": cpu_seconds() - cpu_start,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_checks(work, outputs: dict, failures: list[str]) -> int:
    """Per-op checks plus the fixed reference sample; returns failed op count."""
    failed = set()
    for index, out in outputs.items():
        message = work.check(index, out)
        if message is None and index in work.reference_ops():
            message = work.check_reference(index, out)
        if message is not None:
            failed.add(index)
            failures.append(f"op {index}: {message}")
    return len(failed)


def load_workload(name: str):
    """Import the package under test and one workload module."""
    import repro

    check_package_origin(repro)
    return importlib.import_module(name)


def single_caller(args) -> dict:
    # the set-up clock starts before the package is imported
    clock = Stopwatch()
    clock.resume()
    module = load_workload(args.workload)
    import_s = clock.elapsed()
    work = module.Workload(args.seed, module.Workload.timed_ops(args.seconds))
    clock.pause()
    tracer = None
    if args.trace:
        import tracing

        # installed before set-up so that set-up factorizations are traced
        tracer = tracing.Tracer()
        tracing.install(tracer)
    work.inputs()
    clock.resume()
    work.setup()
    setup_s = clock.seconds()
    if args.setup_only:
        work.teardown()
        return {"setup_s": setup_s}

    loop = closed_loop(work, tracer)
    if tracer is not None:
        tracer.enabled = False  # references and checks are not part of any op
    corrupted = work.reference_ops() if args.corrupt else []
    for index in corrupted:
        work.corrupt(loop["outputs"][index])
    raised = len(loop["failures"])
    failed = raised + run_checks(work, loop["outputs"], loop["failures"])
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "corrupted": len(corrupted),
        "ops": work.n_timed,
        "attempted": work.n_timed + work.n_warmup,
        "failed": failed,
        "failures": loop["failures"][:MAX_MESSAGES],
        "latencies_ms": [seconds * 1e3 for seconds in loop["latencies"]],
        "window_s": loop["window_s"],
        "program_cpu_s": loop["cpu_s"],
        "peak_rss_mb": loop["peak_rss_mb"],
        "digest": work.digest(loop["outputs"]),
        "summary": work.summary(loop["outputs"]),
    }
    if tracer is not None:
        result["layers"] = traced_layers(tracer, work, result)
    work.teardown()
    return result


def traced_layers(tracer, work, result: dict) -> dict:
    import tracing

    index = tracing.SpanIndex(tracer.spans)
    timed = range(work.n_warmup, work.n_warmup + work.n_timed)
    roots = {span.op: span for span in tracer.spans if span.name == "op" and span.op in timed}
    ops = [tracing.op_breakdown(index, roots[op]) for op in timed if op in roots]
    window_spans = [span for op in ops for span in op["spans"]]
    layers = tracing.layer_metrics(ops, index, window_spans)
    layers.update(tracing.tile_metrics(tracer.spans))
    layers["update.retained_mb_per_step"] = result["summary"].get("retained_mb_per_step", 0.0)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans_{work.name}_{work.seed}.json")
    return {"metrics": layers, "table": tracing.layer_table(ops, index)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: falsify every reference-checked answer before the checks")
    args = parser.parse_args(argv)

    if args.workload == "serve_gateway":
        # its set-up is timed by the server process and the client (serve_gateway.run)
        result = load_workload(args.workload).run(args)
    else:
        result = single_caller(args)
    result["workload"] = args.workload
    result["seed"] = args.seed
    result["trace"] = bool(args.trace)
    from repro.core import available_backends

    result["provenance"] = provenance(available_backends())
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
