"""Benchmark-owned spans around the package's public entry points.

:func:`install` wraps the functions listed in :data:`HOOKS` and rebinds
every reference to them in the loaded ``repro`` modules (and the class
attributes of the wrapped methods), so the package's own code calls the
wrappers without being edited.  Each call becomes a :class:`Span` with its
name, start, end, parent and op id.  Spans are kept in memory and written
once, when the run ends.

:func:`op_breakdown` turns the spans of one op into self times per layer
(a span's duration minus its children's) plus the op's unattributed
remainder; :func:`layer_metrics` aggregates those into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

#: package layer of every traced entry point (the layer names are the
#: package's modules, see DESIGN.md)
LAYER_OF = {
    "MVNQuery.from_dict": "serve.net",
    "MVNResult.to_dict": "serve.net",
    "QueryBroker.submit": "serve",
    "QueryPlanner.plan": "query",
    "QueryPlanner.probe_structure": "query",
    "Model.probability_batch": "solver",
    "Model.query": "solver",
    "Model.update": "solver",
    "Model.confidence_region": "crd",
    "FactorCache.get_or_factorize": "batch",
    "sigma_fingerprint": "batch",
    "factorize": "factor",
    "tiled_cholesky": "tile",
    "TLRMatrix.from_dense": "tlr",
    "tlr_cholesky": "tlr",
    "pmvn_integrate_batch": "pmvn",
    "qmc_samples": "pmvn",
    "Runtime.wait_all": "runtime",
    "update_factor": "update",
}

#: layers in report order; "serve.net" in serve_gateway is the client
#: latency left after the broker's own window (wire, asyncio, JSON)
LAYERS = ("serve.net", "serve", "query", "solver", "crd", "batch", "factor", "tlr",
          "tile", "pmvn", "runtime", "update")


@dataclass
class Span:
    id: int
    name: str
    parent: int
    op: object
    start: float
    end: float = 0.0
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "start": self.start, "end": self.end, "thread": self.thread,
                "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process.

    ``op`` is the id stamped on spans opened while it is set (single-caller
    workloads set it per op).  The serving path has no single current op:
    spans there carry the query's tag, or are linked to the queries of
    their micro-batch through the result objects (``batch_of_result``).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: id(result) -> (result, batch span id), set by the shard's
        #: Model.probability_batch, consumed when the query's future resolves
        self.batch_of_result: dict[int, tuple] = {}
        #: id(result) -> (result, op), consumed by MVNResult.to_dict
        self.op_of_result: dict[int, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, op=None, after=None):
        """Run ``fn`` inside a span; ``after(span, result, args)`` may add attributes."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].id if stack else 0,
                    self.op if op is None else op, 0.0,
                    thread=threading.current_thread().name)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if after is not None:
            after(span, result, args)
        return result

    def add_span(self, name: str, start: float, end: float, op=None, parent: int = 0, **attrs) -> Span:
        span = Span(next(self._ids), name, parent, op, start, end,
                    thread=threading.current_thread().name, attrs=attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def count(self, key: str) -> None:
        """Count one event against the innermost open span of this thread."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            attrs = stack[-1].attrs
            attrs[key] = attrs.get(key, 0) + 1

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


# -- wrappers ------------------------------------------------------------------------

def _after_sweep(span, results, args):
    if not results:
        return
    details = results[0].details
    factor = args[1]
    n_samples = results[0].n_samples
    span.attrs.update(
        kernel_s=float(details.get("kernel_seconds", 0.0)),
        gemm_s=float(details.get("gemm_seconds", 0.0)),
        fused=details.get("fusion") == "fused",
        boxes=len(results),
        rows=int(factor.n) * int(n_samples) * len(results),
    )


def _after_tlr_cholesky(span, tlr, args):
    ranks = [tile.rank for tile in tlr.offdiag.values()]
    span.attrs.update(mean_rank=sum(ranks) / len(ranks) if ranks else 0.0,
                      factor_mb=tlr.memory_bytes() / 1e6)


def _after_tiled_cholesky(span, tiles, args):
    span.attrs["flops"] = float(tiles.n) ** 3 / 3.0


def _after_wait_all(span, tasks, args):
    span.attrs.update(workers=int(args[0].n_workers), executed=len(tasks))


def plain(name: str, after=None):
    """Factory of a wrapper that records one span per call."""
    def factory(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after=after)
        return wrapper
    return factory


def _from_dict(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(cls, payload, *args, **kwargs):
        op = payload.get("tag") if isinstance(payload, dict) else None
        return tracer.call("MVNQuery.from_dict", fn, (cls, payload) + args, kwargs, op=op)
    return wrapper


def _to_dict(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        entry = tracer.op_of_result.pop(id(self), None)
        op = entry[1] if entry is not None and entry[0] is self else None
        return tracer.call("MVNResult.to_dict", fn, (self,) + args, kwargs, op=op)
    return wrapper


def _submit(tracer: Tracer, fn):
    """``QueryBroker.submit`` plus a done-callback on its future.

    The callback closes the query's broker window (submit to resolution)
    and links the query to the micro-batch span that produced its result.
    """
    from repro.query import MVNQuery

    def after(span, future, args):
        def done(fut):
            end = time.perf_counter()
            batch = None
            if not fut.cancelled() and fut.exception() is None:
                result = fut.result()
                entry = tracer.batch_of_result.pop(id(result), None)
                if entry is not None and entry[0] is result:
                    batch = entry[1]
                tracer.op_of_result[id(result)] = (result, span.op)
            tracer.add_span("broker.window", span.start, end, op=span.op, batch=batch)

        future.add_done_callback(done)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        op = args[0].tag if args and isinstance(args[0], MVNQuery) else None
        return tracer.call("QueryBroker.submit", fn, (self,) + args, kwargs, op=op, after=after)
    return wrapper


def _probability_batch(tracer: Tracer, fn):
    def after(span, results, args):
        for result in results:
            tracer.batch_of_result[id(result)] = (result, span.id)
    return plain("Model.probability_batch", after)(tracer, fn)


def _get_or_factorize(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.misses

        def after(span, _factor, _args):
            span.attrs["miss"] = int(self.misses != before)
        return tracer.call("FactorCache.get_or_factorize", fn, (self,) + args, kwargs, after=after)
    return wrapper


def _insert_task(tracer: Tracer, fn):
    """Count-only: task submission is too frequent to span."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer.count("tasks")
        return fn(self, *args, **kwargs)
    return wrapper


#: (module, owner, attribute, wrapper factory); owner None marks a
#: module-level function whose every reference in ``repro.*`` is rebound
HOOKS = (
    ("repro.query.spec", "MVNQuery", "from_dict", _from_dict),
    ("repro.mvn.result", "MVNResult", "to_dict", _to_dict),
    ("repro.serve.broker", "QueryBroker", "submit", _submit),
    ("repro.query.planner", "QueryPlanner", "plan", plain("QueryPlanner.plan")),
    ("repro.query.planner", "QueryPlanner", "probe_structure", plain("QueryPlanner.probe_structure")),
    ("repro.solver.solver", "Model", "probability_batch", _probability_batch),
    ("repro.solver.solver", "Model", "query", plain("Model.query")),
    ("repro.solver.solver", "Model", "confidence_region", plain("Model.confidence_region")),
    ("repro.solver.solver", "Model", "update", plain("Model.update")),
    ("repro.batch.cache", "FactorCache", "get_or_factorize", _get_or_factorize),
    ("repro.batch.cache", None, "sigma_fingerprint", plain("sigma_fingerprint")),
    ("repro.core.factor", None, "factorize", plain("factorize")),
    ("repro.tile.cholesky", None, "tiled_cholesky", plain("tiled_cholesky", _after_tiled_cholesky)),
    ("repro.tlr.matrix", "TLRMatrix", "from_dense", plain("TLRMatrix.from_dense")),
    ("repro.tlr.cholesky", None, "tlr_cholesky", plain("tlr_cholesky", _after_tlr_cholesky)),
    ("repro.core.pmvn", None, "pmvn_integrate_batch", plain("pmvn_integrate_batch", _after_sweep)),
    ("repro.stats.qmc", None, "qmc_samples", plain("qmc_samples")),
    ("repro.runtime.runtime", "Runtime", "insert_task", _insert_task),
    ("repro.runtime.runtime", "Runtime", "wait_all", plain("Runtime.wait_all", _after_wait_all)),
    ("repro.core.update", None, "update_factor", plain("update_factor")),
)


def _rebind_everywhere(original, wrapper) -> None:
    """Point every ``repro.*`` module attribute that is ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every hook and rebind the package's references to it.

    Call after the workload has imported the ``repro`` modules it uses, so
    ``from x import f`` copies made at import time are rebound too.
    """
    for module_name, owner_name, attr, factory in HOOKS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = getattr(module, attr)
            _rebind_everywhere(original, factory(tracer, original))
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(factory(tracer, raw.__func__)))
        else:
            setattr(owner, attr, factory(tracer, raw))


# -- analysis ------------------------------------------------------------------------

class SpanIndex:
    """Children and self times of a finished span list."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {span.id: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent:
                self.children.setdefault(span.parent, []).append(span)

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(child.seconds for child in self.children.get(span.id, ()))

    def subtree(self, span: Span) -> list[Span]:
        out = []
        todo = [span]
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(self.children.get(node.id, ()))
        return out


def op_breakdown(index: SpanIndex, root: Span | None, extra_roots=(), op_seconds=None,
                 fixed: dict | None = None) -> dict:
    """Self seconds per layer for one op, plus its unattributed remainder.

    ``root`` is the op's own span (single-caller workloads).  ``extra_roots``
    are subtrees the op waited on without owning them (its micro-batch);
    ``fixed`` holds layer seconds measured outside the span tree (the
    serving path's wire and queue time).  The parts add up to
    ``op_seconds`` (default: the root's duration) by construction; the
    caller checks the residual.
    """
    layers = dict.fromkeys(LAYERS, 0.0)
    spans: list[Span] = []
    for extra in extra_roots:
        spans.extend(index.subtree(extra))
    if root is not None:
        spans.extend(s for s in index.subtree(root) if s is not root)
    for span in spans:
        layers[LAYER_OF[span.name]] += index.self_seconds(span)
    for layer, seconds in (fixed or {}).items():
        layers[layer] += seconds
    total = root.seconds if op_seconds is None else op_seconds
    unattributed = total - sum(layers.values())
    return {"layers": layers, "unattributed": unattributed, "total": total, "spans": spans}


def layer_metrics(ops: list[dict], index: SpanIndex, window_spans: list[Span]) -> dict:
    """Per-layer metrics from per-op breakdowns (see DESIGN.md for definitions).

    Times are per-op means of what each op waited on (a micro-batch's time
    counts for every query in it, so the parts add up to the op's latency);
    counts and rates are window totals divided by ops (work per op).
    """
    n_ops = max(len(ops), 1)

    def waited(names, measure=lambda span: span.seconds) -> float:
        total = sum(measure(span) for op in ops for span in op["spans"] if span.name in names)
        return total / n_ops * 1e3

    def named(name) -> list[Span]:
        return [span for span in window_spans if span.name == name]

    def mean_attr(spans, key) -> float:
        return sum(span.attrs[key] for span in spans) / len(spans) if spans else 0.0

    sweeps = named("pmvn_integrate_batch")
    sweep_waits = [child for sweep in sweeps for child in index.subtree(sweep)
                   if child.name == "Runtime.wait_all"]
    kernel_s = sum(s.attrs.get("kernel_s", 0.0) for s in sweeps)
    gemm_s = sum(s.attrs.get("gemm_s", 0.0) for s in sweeps)
    rows = sum(s.attrs.get("rows", 0) for s in sweeps)
    wait_capacity = sum(s.seconds * s.attrs.get("workers", 1) for s in sweep_waits)
    lookups = named("FactorCache.get_or_factorize")
    misses = sum(s.attrs.get("miss", 0) for s in lookups)
    tlr_factors = named("tlr_cholesky")
    solver_names = {"Model.probability_batch", "Model.query", "Model.update"}
    sweep = {"pmvn_integrate_batch"}

    return {
        "query.plan_calls": len(named("QueryPlanner.plan")) / n_ops,
        "query.plan_ms": waited({"QueryPlanner.plan", "QueryPlanner.probe_structure"}),
        "solver.self_ms": waited(solver_names, index.self_seconds),
        "solver.query_ms": waited({"Model.query"}),
        "solver.batch_ms": waited({"Model.probability_batch"}),
        "batch.factorizations": len(named("factorize")) / n_ops,
        "batch.hit_frac": (len(lookups) - misses) / len(lookups) if lookups else 0.0,
        "batch.fingerprint_ms": waited({"sigma_fingerprint"}),
        "factor.factorize_ms": waited({"factorize"}),
        "tlr.compress_ms": waited({"TLRMatrix.from_dense"}),
        "tlr.cholesky_ms": waited({"tlr_cholesky"}),
        "tlr.mean_rank": mean_attr(tlr_factors, "mean_rank"),
        "tlr.factor_mb": mean_attr(tlr_factors, "factor_mb"),
        "pmvn.sweep_ms": waited(sweep),
        "pmvn.kernel_ms": waited(sweep, lambda span: span.attrs.get("kernel_s", 0.0)),
        "pmvn.gemm_ms": waited(sweep, lambda span: span.attrs.get("gemm_s", 0.0)),
        "pmvn.qmc_ms": waited({"qmc_samples"}),
        "pmvn.chain_rows": rows / n_ops,
        "pmvn.kernel_mrows_s": rows / kernel_s / 1e6 if kernel_s > 0 else 0.0,
        "pmvn.fused_frac": sum(1 for s in sweeps if s.attrs.get("fused")) / len(sweeps) if sweeps else 0.0,
        "runtime.tasks": sum(s.attrs.get("tasks", 0) for s in window_spans) / n_ops,
        "runtime.wait_ms": waited({"Runtime.wait_all"}),
        "runtime.parallel_eff": (kernel_s + gemm_s) / wait_capacity if wait_capacity > 0 else 0.0,
        "update.update_ms": waited({"update_factor"}),
        "crd.self_ms": waited({"Model.confidence_region"}, index.self_seconds),
        "trace.unattributed_ms": sum(op["unattributed"] for op in ops) / n_ops * 1e3,
    }


def tile_metrics(spans: list[Span]) -> dict:
    """Dense tile Cholesky over the whole run (it runs at set-up, not per op)."""
    factors = [span for span in spans if span.name == "tiled_cholesky"]
    seconds = sum(span.seconds for span in factors)
    flops = sum(span.attrs.get("flops", 0.0) for span in factors)
    return {
        "tile.cholesky_ms": seconds * 1e3,
        "tile.cholesky_gflops": flops / seconds / 1e9 if seconds > 0 else 0.0,
    }


def layer_table(ops: list[dict], index: SpanIndex) -> dict:
    """Mean self ms per op of every layer and of the unattributed remainder.

    Also reports the worst residual of the add-up check (layers plus
    remainder against the op's time) and the smallest self time of any
    span, which turns negative if a child span ever outlasts its parent.
    """
    n_ops = max(len(ops), 1)
    table = {layer: sum(op["layers"][layer] for op in ops) / n_ops * 1e3 for layer in LAYERS}
    table["unattributed"] = sum(op["unattributed"] for op in ops) / n_ops * 1e3
    table["op_total"] = sum(op["total"] for op in ops) / n_ops * 1e3
    residuals = [abs(sum(op["layers"].values()) + op["unattributed"] - op["total"]) for op in ops]
    table["max_residual_ms"] = max(residuals, default=0.0) * 1e3
    selfs = [index.self_seconds(span) for op in ops for span in op["spans"]]
    table["min_self_ms"] = min(selfs, default=0.0) * 1e3
    return table
