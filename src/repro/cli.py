"""Command-line interface.

Eight subcommands cover the library's main workflows without writing Python:

``repro mvn``
    Estimate an MVN probability for a covariance matrix stored in ``.npy`` /
    ``.npz`` (or a synthetic spatial covariance generated on the fly).

``repro batch``
    Evaluate many boxes read from a file against one covariance through the
    batched, factorize-once path (:mod:`repro.batch`).

``repro plan``
    Print the :class:`repro.query.QueryPlan` a query would execute —
    chosen estimator (``--auto``), kernel backend, adaptive-accuracy
    schedule and cost estimates — without factorizing or sweeping.

``repro crd``
    Run confidence-region detection on a synthetic dataset (or a covariance /
    mean pair loaded from ``.npy``) and optionally save the result.

``repro pipeline``
    Build a multi-query pipeline (:mod:`repro.query.pipeline`) on a
    synthetic dataset and print its compiled stages (``explain``) or run it
    on a solver session (``run``).

``repro update``
    Apply a rank-k Cholesky up/down-date to a warm factor
    (:meth:`repro.solver.Model.update`) and query the updated model,
    reporting the fingerprint lineage and the update-vs-refactorize cost.

``repro serve``
    Run the JSON-lines network gateway (:mod:`repro.serve.net`): a
    :class:`~repro.serve.broker.QueryBroker` behind an asyncio TCP server
    speaking ``MVNQuery``/``MVNResult`` dictionaries, with optional
    queue-depth autoscaling of the shard count.

``repro calibrate``
    Measure the local kernel rates used by the performance models.

The measured performance gates are not subcommands: each is one
``benchmarks/bench_*.py`` file run under pytest.

The CLI is intentionally thin: it parses arguments, builds exactly one
:class:`repro.solver.MVNSolver` per invocation (the same session API the
examples use), and prints the plain-text tables from
:mod:`repro.utils.reporting`.  The runtime flags (``--workers``,
``--policy``) live in one shared parent parser so every subcommand spells
them identically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.methods import ACCEPTED_METHODS
from repro.runtime.scheduler import ACCEPTED_POLICIES
from repro.serve.config import SIGMA_TRANSPORTS, WORKER_MODES
from repro.utils.timers import collect_timings

__all__ = ["main", "build_parser"]

#: the ``--backend`` choices every solver subcommand offers
_BACKEND_CHOICES = ["numpy", "numba", "numba-parallel", "reference", "auto"]


def _runtime_parent() -> argparse.ArgumentParser:
    """Shared ``--workers`` / ``--policy`` flags for every solver subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=1, help="runtime worker threads")
    parent.add_argument("--policy", default="prio", choices=list(ACCEPTED_POLICIES),
                        help="runtime scheduling policy (canonical name or alias)")
    return parent


def _add_mvn_problem_args(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``mvn`` and ``batch`` subcommands."""
    parser.add_argument("--covariance", type=Path, help=".npy/.npz file with the covariance matrix")
    parser.add_argument("--grid", type=int, default=20, help="synthetic grid side when no covariance is given")
    parser.add_argument("--kernel-range", type=float, default=0.1, help="synthetic exponential kernel range")
    parser.add_argument("--method", default="dense", choices=list(ACCEPTED_METHODS))
    parser.add_argument("--samples", type=int, default=2000, help="MC/QMC sample size")
    parser.add_argument("--tile-size", type=int, default=None)
    parser.add_argument("--accuracy", type=float, default=1e-3, help="TLR compression accuracy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default=None,
                        choices=_BACKEND_CHOICES,
                        help="QMC kernel backend (default: $REPRO_KERNEL_BACKEND or numpy)")
    parser.add_argument("--kernel-threads", type=int, default=None,
                        help="threads for chain-parallel kernel backends "
                             "(default: $REPRO_KERNEL_THREADS or all cores)")
    parser.add_argument("--auto", action="store_true",
                        help="shorthand for --method auto: let the query planner "
                             "pick the estimator (see docs/query.md)")
    parser.add_argument("--target-error", type=float, default=None,
                        help="adaptive accuracy: escalate the sample count until the "
                             "standard error meets this target (or the budget runs out)")
    parser.add_argument("--max-samples", type=int, default=None,
                        help="sample budget of the adaptive loop (default: 64x --samples)")
    parser.add_argument("--verbose", action="store_true",
                        help="print the kernel backend and per-phase timing breakdown")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel high-dimensional MVN probabilities and confidence region detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runtime_parent = _runtime_parent()

    mvn = sub.add_parser("mvn", help="estimate an MVN probability", parents=[runtime_parent])
    _add_mvn_problem_args(mvn)
    mvn.add_argument("--upper", type=float, default=1.0, help="upper limit applied to every dimension")
    mvn.add_argument("--lower", type=float, default=None, help="lower limit (default -inf)")

    batch = sub.add_parser("batch", help="evaluate many MVN boxes against one covariance",
                           parents=[runtime_parent])
    _add_mvn_problem_args(batch)
    batch.add_argument("--boxes", type=Path, required=True,
                       help="box file: .npz with lower/upper arrays, .npy with an "
                            "(n_boxes, 2, n) array, or text rows of 2n numbers")
    batch.add_argument("--save", type=Path, default=None,
                       help="save per-box probabilities/errors to this .npz path")

    plan = sub.add_parser(
        "plan",
        help="print the query plan (estimator, backend, cost model) without executing",
        parents=[runtime_parent],
    )
    _add_mvn_problem_args(plan)
    plan.add_argument("--upper", type=float, default=1.0, help="upper limit applied to every dimension")
    plan.add_argument("--lower", type=float, default=None, help="lower limit (default -inf)")

    crd = sub.add_parser("crd", help="confidence region detection on a synthetic dataset",
                         parents=[runtime_parent])
    crd.add_argument("--correlation", default="medium", help="weak / medium / strong or a range value")
    crd.add_argument("--grid", type=int, default=20, help="grid side of the synthetic dataset")
    crd.add_argument("--threshold-quantile", type=float, default=0.6,
                     help="threshold as a quantile of the latent field")
    crd.add_argument("--confidence", type=float, default=0.95, help="confidence level 1-alpha")
    crd.add_argument("--method", default="tlr", choices=["dense", "tlr", "auto"])
    crd.add_argument("--accuracy", type=float, default=1e-3)
    crd.add_argument("--samples", type=int, default=2000)
    crd.add_argument("--seed", type=int, default=0)
    crd.add_argument("--backend", default=None,
                     choices=_BACKEND_CHOICES,
                     help="QMC kernel backend (default: $REPRO_KERNEL_BACKEND or numpy)")
    crd.add_argument("--kernel-threads", type=int, default=None,
                     help="threads for chain-parallel kernel backends "
                          "(default: $REPRO_KERNEL_THREADS or all cores)")
    crd.add_argument("--verbose", action="store_true",
                     help="print the per-phase timing breakdown of the detection")
    crd.add_argument("--save", type=Path, default=None, help="save the result to this .npz path")
    crd.add_argument("--map", action="store_true", help="print the excursion map as ASCII")

    pipe = sub.add_parser(
        "pipeline",
        help="build, explain or run a multi-query pipeline on a synthetic dataset",
        parents=[runtime_parent],
    )
    pipe.add_argument("action", choices=["explain", "run"],
                      help="explain: print the compiled stages and the whole-graph "
                           "plan; run: execute on a solver session")
    pipe.add_argument("--correlation", default="medium",
                      help="weak / medium / strong or a range value")
    pipe.add_argument("--grid", type=int, default=20,
                      help="grid side of the synthetic dataset")
    pipe.add_argument("--thresholds", type=int, default=4,
                      help="number of excursion thresholds in the sweep")
    pipe.add_argument("--confidence", type=float, default=0.95,
                      help="confidence level 1-alpha")
    pipe.add_argument("--method", default="dense", choices=["dense", "tlr", "auto"])
    pipe.add_argument("--accuracy", type=float, default=1e-3)
    pipe.add_argument("--samples", type=int, default=2000)
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--backend", default=None,
                      choices=_BACKEND_CHOICES,
                      help="QMC kernel backend (default: $REPRO_KERNEL_BACKEND or numpy)")
    pipe.add_argument("--kernel-threads", type=int, default=None,
                      help="threads for chain-parallel kernel backends")
    pipe.add_argument("--verbose", action="store_true",
                      help="print the per-phase timing breakdown of the run")

    update = sub.add_parser(
        "update",
        help="rank-k up/down-date of a warm factor, then query the updated model",
        parents=[runtime_parent],
    )
    _add_mvn_problem_args(update)
    update.add_argument("--upper", type=float, default=1.0,
                        help="upper limit applied to every dimension")
    update.add_argument("--lower", type=float, default=None,
                        help="lower limit (default -inf)")
    update.add_argument("--update-file", type=Path, default=None,
                        help=".npy file with the n x k update matrix U "
                             "(Sigma' = Sigma +/- U U^T)")
    update.add_argument("--rank", type=int, default=4,
                        help="synthetic update rank when no --update-file is given")
    update.add_argument("--scale", type=float, default=0.1,
                        help="entry scale of the synthetic update matrix")
    update.add_argument("--downdate", action="store_true",
                        help="subtract U U^T instead of adding it")

    gateway = sub.add_parser(
        "serve",
        help="run the JSON-lines serving gateway (see docs/serving.md)",
        parents=[runtime_parent],
    )
    gateway.add_argument("--host", default="127.0.0.1", help="listen address")
    gateway.add_argument("--port", type=int, default=8750,
                         help="listen port (0 picks a free port)")
    gateway.add_argument("--method", default="auto", choices=list(ACCEPTED_METHODS),
                         help="estimator of the shard solvers")
    gateway.add_argument("--samples", type=int, default=2000,
                         help="default QMC sample size for queries that omit it")
    gateway.add_argument("--backend", default=None,
                         choices=_BACKEND_CHOICES,
                         help="QMC kernel backend (default: $REPRO_KERNEL_BACKEND or numpy)")
    gateway.add_argument("--kernel-threads", type=int, default=None,
                         help="threads for chain-parallel kernel backends "
                              "(default: $REPRO_KERNEL_THREADS or all cores)")
    gateway.add_argument("--shards", type=int, default=2, help="initial warm solver shards")
    gateway.add_argument("--mode", default="auto", choices=list(WORKER_MODES),
                         help="shard worker mode")
    gateway.add_argument("--max-batch", type=int, default=32, help="micro-batch capacity")
    gateway.add_argument("--batch-window", type=float, default=0.002,
                         help="micro-batch coalescing window (seconds)")
    gateway.add_argument("--max-pending", type=int, default=1024,
                         help="backpressure limit on submitted-but-unfinished requests")
    gateway.add_argument("--cache-entries", type=int, default=8,
                         help="warm models kept per shard")
    gateway.add_argument("--transport", default="auto", choices=list(SIGMA_TRANSPORTS),
                         help="how covariances travel to shards")
    gateway.add_argument("--autoscale", action="store_true",
                         help="scale the shard count with queue depth")
    gateway.add_argument("--min-shards", type=int, default=1,
                         help="autoscaler lower bound")
    gateway.add_argument("--max-shards", type=int, default=4,
                         help="autoscaler upper bound")

    cal = sub.add_parser("calibrate", help="measure local kernel rates")
    cal.add_argument("--tile-size", type=int, default=256)
    cal.add_argument("--rank", type=int, default=16)

    return parser


def _method_from_args(args) -> str:
    """The effective method string (``--auto`` overrides ``--method``)."""
    return "auto" if getattr(args, "auto", False) else args.method


def _config_from_args(args, tile_size=None):
    """A SolverConfig built from the shared MVN-problem flags."""
    from repro import SolverConfig

    return SolverConfig(
        method=_method_from_args(args),
        n_samples=args.samples,
        tile_size=tile_size if tile_size is not None else getattr(args, "tile_size", None),
        accuracy=args.accuracy,
        backend=getattr(args, "backend", None),
        kernel_threads=getattr(args, "kernel_threads", None),
    )


def _solver_from_args(args, tile_size=None):
    """One MVNSolver per CLI invocation, configured from the parsed args."""
    from repro import MVNSolver

    return MVNSolver(_config_from_args(args, tile_size=tile_size),
                     n_workers=args.workers, policy=args.policy)


def _load_covariance(args) -> np.ndarray:
    from repro.kernels import ExponentialKernel, Geometry, build_covariance

    if args.covariance is not None:
        loaded = np.load(args.covariance)
        if isinstance(loaded, np.lib.npyio.NpzFile):
            key = "covariance" if "covariance" in loaded.files else loaded.files[0]
            return np.asarray(loaded[key], dtype=np.float64)
        return np.asarray(loaded, dtype=np.float64)
    geom = Geometry.regular_grid(args.grid, args.grid)
    kernel = ExponentialKernel(1.0, args.kernel_range)
    return build_covariance(kernel, geom.locations, nugget=1e-6)


def _print_plan_outcome(plan: dict | None, args) -> None:
    """Report the executed plan when it carries information (auto / adaptive)."""
    if plan is None:
        return
    adaptive = plan.get("target_error") is not None
    if not (adaptive or plan.get("auto") or getattr(args, "verbose", False)):
        return
    print(f"plan             : method={plan['method']} backend={plan['backend'] or '-'}"
          + ("  (auto)" if plan.get("auto") else ""))
    if adaptive:
        met = "met" if plan.get("target_met") else "NOT met (budget exhausted)"
        print(f"accuracy target  : {plan['target_error']:g} {met} after "
              f"{plan['rounds']} round(s), {plan['samples_used']} samples used")


def _print_verbose(result_details: dict, phases) -> None:
    """Shared ``--verbose`` epilogue: backend attribution + phase breakdown."""
    backend = result_details.get("backend")
    if backend is not None:
        print(f"kernel backend   : {backend}")
        print(f"kernel sweep     : {result_details.get('kernel_seconds', 0.0):.4f} s")
        print(f"gemm propagation : {result_details.get('gemm_seconds', 0.0):.4f} s")
    if phases.names():
        print()
        print(phases)


def _cmd_mvn(args) -> int:
    sigma = _load_covariance(args)
    n = sigma.shape[0]
    lower = -np.inf if args.lower is None else args.lower
    with collect_timings() as phases, _solver_from_args(args) as solver:
        result = solver.model(sigma).probability(
            np.full(n, lower), np.full(n, args.upper), rng=args.seed,
            target_error=args.target_error, max_samples=args.max_samples,
        )
    print(f"dimension        : {result.dimension}")
    print(f"method           : {result.method}")
    print(f"samples          : {result.n_samples}")
    print(f"probability      : {result.probability:.8g}")
    print(f"standard error   : {result.error:.3g}")
    _print_plan_outcome(result.details.get("plan"), args)
    if args.verbose:
        _print_verbose(result.details, phases)
    return 0


def _cmd_batch(args) -> int:
    import time

    from repro.batch import load_boxes
    from repro.utils.reporting import Table

    sigma = _load_covariance(args)
    n = sigma.shape[0]
    if not args.boxes.exists():
        raise SystemExit(f"box file not found: {args.boxes}")
    boxes = load_boxes(args.boxes)
    for idx, (a, b) in enumerate(boxes):
        if a.shape[0] != n:
            raise SystemExit(
                f"box {idx} has dimension {a.shape[0]} but the covariance is {n}x{n}"
            )
    start = time.perf_counter()
    with collect_timings() as phases, _solver_from_args(args) as solver:
        results = solver.model(sigma).probability_batch(
            boxes, rng=args.seed,
            target_error=args.target_error, max_samples=args.max_samples,
        )
    elapsed = time.perf_counter() - start
    table = Table(["box", "probability", "std error"],
                  title=f"{len(boxes)} boxes, dimension {n}, method {_method_from_args(args)}")
    for idx, result in enumerate(results):
        table.add_row([idx, result.probability, result.error])
    print(table.render())
    print(f"elapsed          : {elapsed:.3f} s ({len(boxes) / elapsed:.2f} boxes/s)")
    plans = [r.details.get("plan") for r in results if r.details.get("plan")]
    if plans and (plans[0].get("auto") or args.target_error is not None or args.verbose):
        plan = plans[0]
        print(f"plan             : method={plan['method']} backend={plan['backend'] or '-'}"
              + ("  (auto)" if plan.get("auto") else ""))
        if args.target_error is not None:
            met = sum(1 for p in plans if p.get("target_met"))
            rounds = max(p["rounds"] for p in plans)
            print(f"accuracy target  : {args.target_error:g} met for {met}/{len(plans)} "
                  f"boxes (max {rounds} round(s))")
    if args.verbose:
        _print_verbose(results[0].details if results else {}, phases)
    if args.save is not None:
        np.savez(
            args.save,
            probabilities=np.array([r.probability for r in results]),
            errors=np.array([r.error for r in results]),
        )
        print(f"saved result to {args.save}")
    return 0


def _cmd_plan(args) -> int:
    """Print the plan a query would execute — no factorization, no sweep."""
    from repro.query import MVNQuery, plan_query

    sigma = _load_covariance(args)
    n = sigma.shape[0]
    lower = -np.inf if args.lower is None else args.lower
    query = MVNQuery(
        np.full(n, lower), np.full(n, args.upper),
        n_samples=args.samples, rng=args.seed,
        target_error=args.target_error, max_samples=args.max_samples,
    )
    plan = plan_query(sigma, _config_from_args(args), query)
    print(f"dimension        : {n}")
    print(plan.describe())
    return 0


def _cmd_crd(args) -> int:
    from repro.datasets import make_synthetic_dataset
    from repro.excursion import excursion_map
    from repro.utils.io import save_confidence_region
    from repro.utils.reporting import ascii_heatmap

    correlation = args.correlation
    try:
        correlation = float(correlation)
    except ValueError:
        pass
    dataset = make_synthetic_dataset(correlation, grid_size=args.grid, rng=args.seed)
    threshold = dataset.default_threshold(args.threshold_quantile)
    with (collect_timings() as phases,
          _solver_from_args(args, tile_size=max(32, dataset.n // 8)) as solver):
        model = solver.model(dataset.posterior.covariance, mean=dataset.posterior.mean)
        result = model.confidence_region(threshold, rng=args.seed)
    alpha = 1.0 - args.confidence
    print(f"locations             : {dataset.n}")
    print(f"threshold u           : {threshold:.4f}")
    print(f"confidence level      : {args.confidence}")
    print(f"marginal region size  : {int(np.count_nonzero(result.marginal_probabilities >= args.confidence))}")
    print(f"confidence region size: {result.region_size(alpha)}")
    if args.verbose:
        _print_verbose(result.details, phases)
    if args.map:
        print()
        print(ascii_heatmap(excursion_map(dataset.geometry, result, alpha)))
    if args.save is not None:
        path = save_confidence_region(result, args.save)
        print(f"saved result to {path}")
    return 0


def _cmd_pipeline(args) -> int:
    """Build a threshold-sweep excursion pipeline; explain or run it."""
    from repro.datasets import make_synthetic_dataset
    from repro.query import QueryPipeline, execute_pipeline

    correlation = args.correlation
    try:
        correlation = float(correlation)
    except ValueError:
        pass
    dataset = make_synthetic_dataset(correlation, grid_size=args.grid, rng=args.seed)
    quantiles = np.linspace(0.5, 0.9, args.thresholds)
    thresholds = [dataset.default_threshold(q) for q in quantiles]
    alpha = 1.0 - args.confidence

    pipeline = QueryPipeline(name="excursion-threshold-sweep")
    pipeline.add_sigma("field", dataset.posterior.covariance,
                       mean=dataset.posterior.mean)
    pipeline.add_excursion_sweep("sweep", thresholds, sigma="field",
                                 alpha=alpha, rng=args.seed)

    config = _config_from_args(args, tile_size=max(32, dataset.n // 8))
    if args.action == "explain":
        print(pipeline.explain())
        print()
        from repro.query import QueryPlanner

        print(QueryPlanner().plan_pipeline(pipeline, config).describe())
        return 0

    from repro.solver import MVNSolver

    with (collect_timings() as phases,
          MVNSolver(config, n_workers=args.workers, policy=args.policy,
                    cache_entries=2 * len(thresholds) + 2) as solver):
        out = execute_pipeline(pipeline, solver)
        factorizations = solver.cache.factorize_count
    print(f"locations        : {dataset.n}")
    print(f"thresholds       : {', '.join(f'{u:.3f}' for u in thresholds)}")
    print(f"confidence level : {args.confidence}")
    print(f"factorizations   : {factorizations} "
          f"(vs {2 * len(thresholds)} for a loop of transient detections)")
    for threshold, analysis in zip(thresholds, out["sweep"]):
        counts = analysis.summary()
        print(f"  u={threshold:.3f}: above={counts['above']} "
              f"below={counts['below']} uncertain={counts['uncertain']}")
    if args.verbose:
        _print_verbose({}, phases)
    return 0


def _cmd_update(args) -> int:
    """Factorize, apply a rank-k up/down-date, query both models."""
    import time

    from repro.core import DowndateError

    sigma = _load_covariance(args)
    n = sigma.shape[0]
    if args.update_file is not None:
        u = np.asarray(np.load(args.update_file), dtype=np.float64)
    else:
        rng = np.random.default_rng(args.seed)
        u = args.scale * rng.standard_normal((n, args.rank))
    lower = -np.inf if args.lower is None else args.lower
    a = np.full(n, lower)
    b = np.full(n, args.upper)
    with _solver_from_args(args) as solver:
        model = solver.model(sigma)
        start = time.perf_counter()
        parent = model.probability(a, b, rng=args.seed)
        parent_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        try:
            child_model = model.update(u, downdate=args.downdate)
        except DowndateError as exc:
            raise SystemExit(f"downdate rejected (would lose positive "
                             f"definiteness): {exc}")
        child = child_model.probability(a, b, rng=args.seed)
        child_elapsed = time.perf_counter() - start
    lineage = child.details["lineage"]
    direction = "downdate" if args.downdate else "update"
    print(f"dimension        : {n}")
    print(f"update           : rank {u.shape[1] if u.ndim == 2 else 1} {direction}")
    print(f"parent prob      : {parent.probability:.8g}  "
          f"(factorize+query {parent_elapsed:.3f} s)")
    print(f"updated prob     : {child.probability:.8g}  "
          f"(update+query {child_elapsed:.3f} s)")
    print(f"lineage          : depth {lineage['depth']}, "
          f"parent {lineage['parent'][:12]}..., "
          f"child {lineage['fingerprint'][:12]}...")
    _print_plan_outcome(child.details.get("plan"), args)
    return 0


def _cmd_serve(args) -> int:
    """Run the network gateway until interrupted (Ctrl-C exits cleanly)."""
    import asyncio
    import contextlib

    from repro import SolverConfig
    from repro.serve import QueryBroker, ServeConfig
    from repro.serve.net import Autoscaler, ServeGateway

    solver_config = SolverConfig(method=args.method, n_samples=args.samples,
                                 backend=args.backend,
                                 kernel_threads=args.kernel_threads)
    serve_config = ServeConfig(
        n_shards=args.shards, worker_mode=args.mode, max_batch=args.max_batch,
        batch_window=args.batch_window, max_pending=args.max_pending,
        n_workers=args.workers, policy=args.policy,
        cache_entries=args.cache_entries, sigma_transport=args.transport,
    )

    async def run() -> None:
        broker = QueryBroker(serve_config, solver_config)
        autoscaler = None
        try:
            if args.autoscale:
                autoscaler = Autoscaler(broker, min_shards=args.min_shards,
                                        max_shards=args.max_shards)
                autoscaler.run()
            async with ServeGateway(broker, host=args.host, port=args.port) as gateway:
                host, port = gateway.address
                print(f"serving on {host}:{port} "
                      f"({broker.n_shards} {serve_config.resolved_worker_mode()} shards, "
                      f"{broker.sigma_transport} transport, method={args.method})",
                      flush=True)
                await gateway.serve_forever()
        finally:
            if autoscaler is not None:
                autoscaler.stop()
            broker.close()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(run())
    return 0


def _cmd_calibrate(args) -> int:
    from repro.perf import calibrate

    print(calibrate(tile_size=args.tile_size, rank=args.rank))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "mvn":
        return _cmd_mvn(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "crd":
        return _cmd_crd(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "update":
        return _cmd_update(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
