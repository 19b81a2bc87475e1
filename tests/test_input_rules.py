"""One rule per caller input, run where the input enters.

The limits, the mean and the positive counts each have one rule in
:mod:`repro.utils.validation`; these tests pin that every entry point
applies it at its boundary — a non-finite mean fails before any
factorization, every boundary count rejects the same values by name — and
that nothing below a boundary object re-checks the limits it checked.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.batch import FactorCache, mvn_probability_batch
from repro.core import PMVNOptions, factorize, mvn_probability, pmvn_integrate
from repro.mvn import mvn_mc, mvn_sov
from repro.query import MVNQuery, QueryPipeline, QueryPlanner
from repro.serve import QueryBroker, ServeConfig
from repro.solver import MVNSolver, SolverConfig
from repro.utils import validation


@pytest.fixture
def sigma(medium_spd) -> np.ndarray:
    return medium_spd


def _box(n: int):
    return np.full(n, -np.inf), np.linspace(0.5, 1.5, n)


# -- the mean ------------------------------------------------------------------------

def _on_model(call):
    """An entry point that binds the mean to a model, then calls ``call(model, n)``."""
    def run(sigma, mean, cache):
        with MVNSolver(SolverConfig(n_samples=64), cache=cache) as solver:
            return call(solver.model(sigma, mean=mean), sigma.shape[0])
    return run


#: every entry point that takes a mean, called with it; ``cache`` counts
#: the factorizations a call pays before it fails
MEAN_ENTRY_POINTS = {
    "mvn_probability": lambda sigma, mean, cache: mvn_probability(
        *_box(len(sigma)), sigma, mean=mean, n_samples=64, rng=0, cache=cache),
    "mvn_probability_batch": lambda sigma, mean, cache: mvn_probability_batch(
        [_box(len(sigma))], sigma, means=mean, n_samples=64, rng=0, cache=cache),
    "Model.probability": _on_model(lambda model, n: model.probability(*_box(n), rng=0)),
    "Model.confidence_region": _on_model(lambda model, n: model.confidence_region(0.0, rng=0)),
    "MVNQuery": lambda sigma, mean, cache: MVNQuery(*_box(len(sigma)), mean=mean),
    "mvn_sov": lambda sigma, mean, cache: mvn_sov(
        *_box(len(sigma)), sigma, n_samples=16, mean=mean, rng=0),
    "mvn_mc": lambda sigma, mean, cache: mvn_mc(
        *_box(len(sigma)), sigma, n_samples=64, mean=mean, rng=0),
    "pmvn_integrate": lambda sigma, mean, cache: pmvn_integrate(
        *_box(len(sigma)), factorize(sigma, tile_size=10), PMVNOptions(n_samples=64, rng=0),
        mean=mean),
}


@pytest.mark.parametrize("entry", sorted(MEAN_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["nan", "inf", "one-nan-entry"])
def test_non_finite_mean_fails_before_factorization(sigma, entry, bad):
    n = sigma.shape[0]
    mean = {"nan": np.nan, "inf": np.inf,
            "one-nan-entry": np.where(np.arange(n) == 3, np.nan, 0.5)}[bad]
    cache = FactorCache()
    with pytest.raises(ValueError, match="^mean must be finite$"):
        MEAN_ENTRY_POINTS[entry](sigma, mean, cache)
    assert cache.factorize_count == 0


# -- the counts ----------------------------------------------------------------------

def _pipeline_crd_samples(value):
    pipeline = QueryPipeline()
    pipeline.add_sigma("field", np.eye(2))
    pipeline.add_crd("crd", sigma="field", threshold=0.0, n_samples=value)
    return pipeline.node("crd").n_samples


def _planned_count(name):
    """Plans a query with one schedule override and reads that count back
    (a sample budget only counts beside an error target)."""
    schedule = {"target_error": 1e-3} if name == "max_samples" else {}

    def read(value):
        plan = QueryPlanner().plan(np.eye(2), SolverConfig(method="dense", n_samples=64),
                                   **schedule, **{name: value})
        return getattr(plan, name)
    return read


#: field name -> reads one value through its boundary and returns the count
COUNT_FIELDS = {
    **{f"SolverConfig.{name}": (name, lambda v, name=name: getattr(SolverConfig(**{name: v}), name))
       for name in ("n_samples", "tile_size", "max_rank")},
    **{f"MVNQuery.{name}": (name, lambda v, name=name: getattr(MVNQuery([0.0], [1.0], **{name: v}), name))
       for name in ("n_samples", "max_samples")},
    **{f"ServeConfig.{name}": (name, lambda v, name=name: getattr(ServeConfig(**{name: v}), name))
       for name in ("n_shards", "max_batch", "max_pending", "n_workers", "cache_entries")},
    "QueryPipeline.add_crd.n_samples": ("n_samples", _pipeline_crd_samples),
    **{f"QueryPlanner.plan.{name}": (name, _planned_count(name))
       for name in ("n_samples", "max_samples")},
}

#: counts every boundary rejects, each with the same message
BAD_COUNTS = [0, -1, 2.5, True]


@pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_boundary_counts_share_one_rule(field, bad):
    name, read = COUNT_FIELDS[field]
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {bad!r}$"):
        read(bad)
    assert read(1e3) == 1000
    assert type(read(1e3)) is int


@pytest.fixture(scope="module")
def one_shard_broker():
    with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                     SolverConfig(n_samples=64)) as broker:
        yield broker


@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_broker_resize_shares_the_count_rule(one_shard_broker, bad):
    """A live shard count follows the config's rule (1e3 is not tried: it
    would start a thousand shards)."""
    with pytest.raises(ValueError, match=f"^n_shards must be a positive integer, got {bad!r}$"):
        one_shard_broker.resize(bad)
    assert one_shard_broker.n_shards == 1


@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_model_plan_shares_the_schedule_rule(sigma, bad):
    """``Model.plan`` checks its schedule overrides as the query paths do."""
    with MVNSolver(SolverConfig(n_samples=64)) as solver:
        model = solver.model(sigma)
        for field in ("n_samples", "max_samples"):
            with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
                model.plan(**{field: bad})
            with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
                model.probability_batch([_box(sigma.shape[0])], **{field: bad})
        plan = model.plan(n_samples=1e3, target_error=1e-3)
    assert plan.n_samples == 1000 and type(plan.n_samples) is int
    assert plan.max_samples == 64_000


# -- the limits: checked once per boundary -------------------------------------------

@pytest.fixture
def limit_checks(monkeypatch) -> list:
    """Record every ``check_limits`` call made through any ``repro`` module."""
    calls: list = []
    original = validation.check_limits

    def counting(*args, **kwargs):
        calls.append(1)  # list.append is atomic: shard threads count too
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, "check_limits", None) is original:
            monkeypatch.setattr(module, "check_limits", counting)
    return calls


def test_single_box_entry_points_check_limits_twice(sigma, limit_checks):
    """The query checks its limits, and the public sweep its boxes."""
    a, b = _box(sigma.shape[0])
    config = SolverConfig(n_samples=64, tile_size=10)
    with MVNSolver(config) as solver:
        model = solver.model(sigma)
        model.factorize()
        counts = {}
        for label, call in (
            ("Model.query", lambda: model.query(MVNQuery(a, b, rng=0))),
            ("Model.probability", lambda: model.probability(a, b, rng=0)),
            ("mvn_probability", lambda: mvn_probability(a, b, sigma, n_samples=64,
                                                        tile_size=10, rng=0)),
        ):
            limit_checks.clear()
            call()
            counts[label] = len(limit_checks)
    assert counts == {"Model.query": 2, "Model.probability": 2, "mvn_probability": 2}


def test_batch_checks_limits_twice_per_box(sigma, limit_checks):
    n = sigma.shape[0]
    boxes = [(np.full(n, -np.inf), np.full(n, u)) for u in (0.5, 1.0, 1.5)]
    with MVNSolver(SolverConfig(n_samples=64, tile_size=10)) as solver:
        model = solver.model(sigma)
        model.factorize()
        limit_checks.clear()
        model.probability_batch(boxes, rng=0)
    assert len(limit_checks) == 2 * len(boxes)


def test_served_box_checks_limits_three_times(sigma, limit_checks):
    """Query, the shard's batch boundary and the sweep; not the broker."""
    n = sigma.shape[0]
    uppers = (0.5, 1.0, 1.5)
    with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                     SolverConfig(n_samples=64, tile_size=10)) as broker:
        futures = [broker.submit(np.full(n, -np.inf), np.full(n, u), sigma, rng=0)
                   for u in uppers]
        for future in futures:
            future.result(timeout=60)
    assert len(limit_checks) <= 3 * len(uppers)


@pytest.mark.parametrize("ref_mean", [0.0, 0.25, "vector"])
def test_pipeline_nodes_check_limits_alike_on_both_executors(sigma, limit_checks, ref_mean):
    """After ``add_query`` a node runs the same checks on a broker as on a
    solver: its batch boundary and the sweep.  The broker executor carries
    the ref's mean without rebuilding (and re-checking) the node's query."""
    from repro.query import execute_pipeline

    n = sigma.shape[0]
    mean = np.linspace(-0.2, 0.2, n) if ref_mean == "vector" else ref_mean
    pipe = QueryPipeline(name="counted")
    pipe.add_sigma("s", sigma, mean=mean)
    for i, u in enumerate((0.5, 1.0, 1.5)):
        pipe.add_query(f"q{i}", MVNQuery(np.full(n, -np.inf), np.full(n, u), rng=0), sigma="s")
    config = SolverConfig(method="dense", n_samples=64, tile_size=10)
    counts, answers = {}, {}
    with MVNSolver(config) as solver:
        limit_checks.clear()
        answers["solver"] = execute_pipeline(pipe, solver)
        counts["solver"] = len(limit_checks)
    with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.05),
                     config) as broker:
        limit_checks.clear()
        answers["broker"] = execute_pipeline(pipe, broker)
        counts["broker"] = len(limit_checks)
    assert counts == {"solver": 6, "broker": 6}
    for name in ("q0", "q1", "q2"):
        assert answers["broker"][name].probability == answers["solver"][name].probability
