"""Property and invariant tests for the scheduler policies.

Three kinds of guarantees are exercised:

* **queue invariants** — randomized, seeded operation sequences (with a
  minimal-failing-prefix shrinker, so failures reproduce small) check the
  per-policy ordering rules: FIFO order, priority never inverted, b-level
  rank order, locality routing, work-stealing placement;
* **concurrency** — N threads hammering one scheduler conserve tasks: every
  push is popped exactly once, nothing is lost, duplicated or invented;
* **determinism** — the policy simulator replays identically, and real
  threaded executions are bit-identical across policies (dependency edges
  fix the operation order; scheduling only moves wall time).

The stress tests (8 workers, 500+ tasks under every policy) are marked
``slow`` and bound their wall time with watchdog joins (the ``timeout``
marker is advisory: pytest-timeout is not a dependency).
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.distributed import ClusterSpec, build_pmvn_task_graph
from repro.distributed.pmvn_model import KernelRates
from repro.runtime import (
    ACCEPTED_POLICIES,
    INFORMATION_MODES,
    POLICIES,
    POLICY_ALIASES,
    READ,
    READWRITE,
    WRITE,
    BlindEstimator,
    BLevelScheduler,
    DataHandle,
    ExactEstimator,
    ExecutionTrace,
    FifoScheduler,
    LocalityScheduler,
    ModelEstimator,
    PriorityScheduler,
    Runtime,
    Task,
    TaskGraph,
    WorkStealScheduler,
    canonical_policy,
    make_estimator,
    make_scheduler,
)

ALL_POLICIES = tuple(sorted(POLICIES))


# -- seeded generators (shrinking-friendly) ---------------------------------------


def random_tasks(seed: int, n: int, n_workers: int = 4, homed: bool = False) -> list[Task]:
    """``n`` tasks with seeded random priorities/costs (and homes)."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        accesses = []
        if homed:
            home = int(rng.integers(0, n_workers))
            accesses = [(DataHandle(name=f"h{i}", home=home), WRITE)]
        tasks.append(
            Task(
                lambda: None,
                accesses=accesses,
                name=f"t{i}",
                priority=int(rng.integers(0, 10)),
                cost=float(rng.uniform(0.1, 2.0)),
            )
        )
    return tasks


def mixed_pmvn_graph(n_workers: int) -> list:
    """Two TLR and one dense PMVN problem merged into one simulator DAG."""
    cluster = ClusterSpec(n_nodes=n_workers)
    rates = KernelRates()
    merged: list = []
    for i, spec in enumerate((
        dict(n=256, n_samples=256, tile_size=64, method="tlr", chain_block=128),
        dict(n=192, n_samples=192, tile_size=64, method="dense", chain_block=96),
        dict(n=256, n_samples=192, tile_size=64, method="tlr", chain_block=96),
    )):
        graph = build_pmvn_task_graph(cluster=cluster, rates=rates, **spec)
        offset = len(merged)
        for task in graph:
            task.deps = [d + offset for d in task.deps]
            task.name = f"S{i}:{task.name}"
        merged.extend(graph)
    return merged


def shrink_to_minimal_prefix(ops, fails) -> list:
    """Smallest failing prefix of ``ops`` (linear scan: prefixes nest)."""
    for length in range(1, len(ops) + 1):
        if fails(ops[:length]):
            return list(ops[:length])
    return list(ops)


def run_ops(scheduler, ops):
    """Replay a push/pop operation sequence; return the pop outcomes."""
    queued: list[Task] = []
    popped = []
    for kind, payload in ops:
        if kind == "push":
            scheduler.push(payload)
            queued.append(payload)
        else:
            task = scheduler.pop(payload)
            if task is not None:
                queued.remove(task)
            popped.append((task, [t.priority for t in queued]))
    return popped


def priority_op_sequence(seed: int, n_ops: int = 60):
    """A seeded random interleaving of pushes and pops."""
    rng = np.random.default_rng(seed)
    tasks = iter(random_tasks(seed, n_ops))
    ops = []
    for _ in range(n_ops):
        if rng.random() < 0.6:
            ops.append(("push", next(tasks)))
        else:
            ops.append(("pop", int(rng.integers(0, 4))))
    return ops


# -- the alias table (satellite: the once-undocumented "ws" alias) ----------------


class TestPolicyRegistry:
    def test_alias_table_pinned(self):
        """The full alias table is public API — additions are deliberate."""
        assert POLICY_ALIASES == {
            "fifo": "fifo",
            "eager": "fifo",
            "prio": "prio",
            "priority": "prio",
            "locality": "locality",
            "dmda": "locality",
            "blevel": "blevel",
            "b-level": "blevel",
            "critical-path": "blevel",
            "heft": "blevel",
            "worksteal": "worksteal",
            "ws": "worksteal",
            "steal": "worksteal",
        }

    def test_ws_alias_routes_to_worksteal(self):
        """``"ws"`` is documented and resolves to the work-stealing policy."""
        assert canonical_policy("ws") == "worksteal"
        assert isinstance(make_scheduler("ws", 2), WorkStealScheduler)
        assert "ws" in make_scheduler.__doc__

    def test_accepted_policies_is_sorted_alias_set(self):
        assert ACCEPTED_POLICIES == tuple(sorted(POLICY_ALIASES))

    def test_every_alias_resolves_to_known_class(self):
        for alias in POLICY_ALIASES:
            assert canonical_policy(alias) in POLICIES

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_factory_returns_named_policy(self, policy):
        scheduler = make_scheduler(policy, 3)
        assert isinstance(scheduler, POLICIES[policy])
        assert scheduler.name == policy
        assert scheduler.n_workers == 3

    def test_canonicalization_strips_and_lowercases(self):
        assert canonical_policy("  HEFT ") == "blevel"
        assert canonical_policy("Eager") == "fifo"

    def test_unknown_policy_error_lists_accepted_names(self):
        with pytest.raises(ValueError, match="worksteal"):
            canonical_policy("newest-first")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", 0)


# -- ordering invariants ----------------------------------------------------------


class TestPriorityInvariant:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_never_pops_lower_while_higher_queued(self, seed):
        """Property: a popped task has the max priority among queued tasks."""
        ops = priority_op_sequence(seed)

        def fails(prefix) -> bool:
            outcomes = run_ops(PriorityScheduler(4), prefix)
            return any(
                task is not None and remaining and task.priority < max(remaining)
                for task, remaining in outcomes
            )

        if fails(ops):
            minimal = shrink_to_minimal_prefix(ops, fails)
            pytest.fail(
                f"priority inversion (seed={seed}); minimal failing prefix "
                f"({len(minimal)} ops): {[(k, getattr(p, 'name', p)) for k, p in minimal]}"
            )

    def test_equal_priorities_pop_in_submission_order(self):
        s = PriorityScheduler()
        tasks = [Task(lambda: None, name=f"t{i}", priority=5) for i in range(6)]
        for t in tasks:
            s.push(t)
        assert [s.pop() for _ in tasks] == tasks

    def test_pop_empty_returns_none(self):
        assert PriorityScheduler().pop() is None


class TestBLevelOrdering:
    def _chain_and_leaves(self):
        """A 3-deep chain (long critical path) plus cheap independent leaves."""
        graph = TaskGraph()
        h = DataHandle(name="chain")
        chain = [
            graph.add_task(Task(lambda: None, [(h, READWRITE)], name=f"c{i}", cost=1.0))
            for i in range(3)
        ]
        leaves = [
            graph.add_task(Task(lambda: None, name=f"leaf{i}", cost=0.1, priority=9))
            for i in range(3)
        ]
        return graph, chain, leaves

    def test_critical_chain_pops_before_cheap_leaves(self):
        graph, chain, leaves = self._chain_and_leaves()
        s = BLevelScheduler(2)
        s.prepare(graph)
        for t in (*leaves, chain[0]):  # ready set: all leaves plus the chain head
            s.push(t)
        assert s.pop() is chain[0], "the critical-path head must pop first"

    def test_ranks_decrease_along_chain(self):
        graph, chain, _ = self._chain_and_leaves()
        levels = graph.blevels()
        assert levels[chain[0]] > levels[chain[1]] > levels[chain[2]]

    def test_blind_estimator_degrades_to_depth(self):
        graph, chain, _ = self._chain_and_leaves()
        levels = graph.blevels(BlindEstimator().duration)
        assert levels[chain[0]] == pytest.approx(3.0)  # 3 unit-duration hops

    def test_unprepared_scheduler_falls_back_to_priority(self):
        s = BLevelScheduler(2)
        low = Task(lambda: None, priority=1)
        high = Task(lambda: None, priority=8)
        s.push(low)
        s.push(high)
        assert s.pop() is high


class TestLocalityRouting:
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_home_tasks_served_before_shared(self, seed):
        """Property: while worker w's queue is non-empty, w pops its own."""
        n_workers = 4
        s = LocalityScheduler(n_workers)
        tasks = random_tasks(seed, 24, n_workers=n_workers, homed=True)
        shared = [Task(lambda: None, name=f"s{i}") for i in range(6)]
        for t in (*tasks, *shared):
            s.push(t)
        homes = {t: t.written_handles()[0].home for t in tasks}
        per_worker = {w: sum(1 for t in tasks if homes[t] == w) for w in range(n_workers)}
        for w in range(n_workers):
            for _ in range(per_worker[w]):
                popped = s.pop(w)
                assert homes[popped] == w, "home-tagged work must precede shared"

    def test_homeless_tasks_route_to_shared_queue(self):
        trace = ExecutionTrace()
        s = LocalityScheduler(2, trace=trace)
        s.push(Task(lambda: None))
        assert trace.sched_events[-1].reason == "shared"

    def test_steal_is_last_resort_and_traced(self):
        trace = ExecutionTrace()
        s = LocalityScheduler(2, trace=trace)
        s.push(Task(lambda: None, [(DataHandle(home=0), WRITE)], name="homed"))
        assert s.pop(1) is not None  # worker 1 has nothing local/shared: steals
        assert trace.sched_events[-1].kind == "steal"
        assert trace.sched_events[-1].reason == "steal:0"
        assert trace.steal_count() == 1


class TestWorkStealPlacement:
    def test_affinity_follows_predecessor_worker(self):
        graph = TaskGraph()
        h = DataHandle(name="tile")
        pred = graph.add_task(Task(lambda: None, [(h, WRITE)], name="factor"))
        succ = graph.add_task(Task(lambda: None, [(h, READ)], name="update"))
        trace = ExecutionTrace()
        s = WorkStealScheduler(4, trace=trace)
        s.prepare(graph)
        pred.worker = 2  # the factorization ran on worker 2
        s.push(succ)
        assert trace.sched_events[-1].reason == "affinity:2"
        assert s.pop(2) is succ
        assert trace.sched_events[-1].reason == "local"

    def test_home_hint_used_for_roots(self):
        trace = ExecutionTrace()
        s = WorkStealScheduler(4, trace=trace)
        s.push(Task(lambda: None, [(DataHandle(home=3), WRITE)], name="root"))
        assert trace.sched_events[-1].reason == "home:3"
        assert s.pop(3) is not None

    def test_own_pop_is_lifo_steal_is_fifo(self):
        s = WorkStealScheduler(2)
        first = Task(lambda: None, [(DataHandle(home=0), WRITE)], name="first")
        second = Task(lambda: None, [(DataHandle(home=0), WRITE)], name="second")
        s.push(first)
        s.push(second)
        assert s.pop(0) is second, "owner pops newest (cache-warm, depth-first)"
        assert s.pop(1) is first, "thief steals oldest"

    def test_steals_from_most_loaded_victim(self):
        trace = ExecutionTrace()
        s = WorkStealScheduler(3, trace=trace)
        s.push(Task(lambda: None, [(DataHandle(home=0), WRITE)]))
        for _ in range(3):
            s.push(Task(lambda: None, [(DataHandle(home=1), WRITE)]))
        assert s.pop(2) is not None
        assert trace.sched_events[-1].reason == "steal:1"

    def test_no_graph_no_home_goes_shared(self):
        trace = ExecutionTrace()
        s = WorkStealScheduler(2, trace=trace)
        s.push(Task(lambda: None, name="orphan"))
        assert trace.sched_events[-1].reason == "shared"
        assert s.pop(0) is not None


# -- concurrency: conservation under N racing threads -----------------------------


class TestConcurrentConservation:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_tasks_conserved_across_racing_threads(self, policy):
        """Every pushed task is popped exactly once; none lost or invented."""
        n_workers, n_tasks = 4, 120
        scheduler = make_scheduler(policy, n_workers)
        tasks = random_tasks(seed=17, n=n_tasks, n_workers=n_workers, homed=True)
        popped: list[list[Task]] = [[] for _ in range(n_workers)]
        done = threading.Event()
        remaining = [n_tasks]
        count_lock = threading.Lock()

        def pusher(chunk):
            for task in chunk:
                scheduler.push(task)

        def popper(worker):
            while not done.is_set():
                task = scheduler.pop(worker)
                if task is None:
                    continue
                popped[worker].append(task)
                with count_lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.set()

        chunks = [tasks[i::2] for i in range(2)]
        threads = [threading.Thread(target=pusher, args=(c,)) for c in chunks] + [
            threading.Thread(target=popper, args=(w,)) for w in range(n_workers)
        ]
        for t in threads:
            t.start()
        assert done.wait(timeout=30.0), f"{policy}: poppers starved — tasks lost"
        for t in threads:
            t.join(timeout=30.0)
        flat = [t for per_worker in popped for t in per_worker]
        assert len(flat) == n_tasks
        assert {t.uid for t in flat} == {t.uid for t in tasks}
        assert len(scheduler) == 0


# -- determinism ------------------------------------------------------------------


class TestReplayDeterminism:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_simulator_replays_identically(self, policy):
        """Same seeded graph, same policy -> same makespan, same event tape."""
        from repro.distributed.simulator import SchedulerSimulator

        tasks = mixed_pmvn_graph(n_workers=4)
        runs = [SchedulerSimulator(4, policy).run(tasks) for _ in range(2)]
        assert runs[0].makespan == runs[1].makespan
        assert runs[0].events == runs[1].events
        assert runs[0].fetch_seconds == runs[1].fetch_seconds

    def test_simulator_policies_execute_every_task(self):
        from repro.distributed.simulator import SchedulerSimulator

        tasks = mixed_pmvn_graph(n_workers=4)
        for policy in ALL_POLICIES:
            result = SchedulerSimulator(4, policy).run(tasks)
            assert result.n_tasks == len(tasks)
            assert len(result.events) == len(tasks)
            assert result.makespan > 0

    def test_policies_bit_identical_real_execution(self, medium_spd):
        """Different policies, same numbers: dependency edges fix the math."""
        from repro.tile import TileMatrix, tiled_cholesky

        def factor(policy):
            runtime = Runtime(4, policy=policy)
            tiles = TileMatrix.from_dense(medium_spd, 10, lower_only=True)
            return tiled_cholesky(tiles, runtime).to_dense()

        reference = factor("fifo")
        for policy in ALL_POLICIES[1:]:
            assert np.array_equal(factor(policy), reference), (
                f"policy {policy!r} changed numerical results"
            )


# -- information modes ------------------------------------------------------------


class TestEstimators:
    def test_exact_returns_task_cost(self):
        assert ExactEstimator().duration(Task(lambda: None, cost=2.5)) == 2.5

    def test_exact_falls_back_for_unknown_cost(self):
        assert ExactEstimator().duration(Task(lambda: None)) > 0

    def test_blind_is_unit_cost(self):
        est = BlindEstimator()
        assert est.duration(Task(lambda: None, cost=100.0)) == 1.0
        assert est.mode == "blind"

    def test_model_estimator_ranks_kernels_by_cost(self):
        est = ModelEstimator(tile_size=128)
        gemm = est.duration(Task(lambda: None, tag="gemm"))
        qmc = est.duration(Task(lambda: None, tag="qmc"))
        assert gemm > 0 and qmc > 0

    def test_model_estimator_unknown_tag_falls_back(self):
        assert ModelEstimator().duration(Task(lambda: None, tag="mystery")) > 0

    def test_make_estimator_modes(self):
        for mode in INFORMATION_MODES:
            assert make_estimator(mode).mode == mode
        with pytest.raises(ValueError):
            make_estimator("psychic")


# -- trace events -----------------------------------------------------------------


class TestSchedulingTrace:
    def test_push_and_pop_events_with_queue_depth(self):
        trace = ExecutionTrace()
        s = FifoScheduler(trace=trace)
        s.push(Task(lambda: None, name="a"))
        s.push(Task(lambda: None, name="b"))
        s.pop()
        kinds = [e.kind for e in trace.sched_events]
        depths = [e.queue_depth for e in trace.sched_events]
        assert kinds == ["push", "push", "pop"]
        assert depths == [1, 2, 1]
        assert trace.max_queue_depth() == 2

    def test_placement_counts_exclude_pushes(self):
        trace = ExecutionTrace()
        s = LocalityScheduler(2, trace=trace)
        s.push(Task(lambda: None, [(DataHandle(home=0), WRITE)]))
        s.pop(0)
        counts = trace.placement_counts()
        assert counts == {"local": 1}

    def test_clear_drops_sched_events(self):
        trace = ExecutionTrace()
        s = FifoScheduler(trace=trace)
        s.push(Task(lambda: None))
        trace.clear()
        assert trace.sched_events == []

    def test_summary_includes_steals_and_depth(self):
        summary = ExecutionTrace().summary(n_workers=2)
        assert "steals" in summary and "max_queue_depth" in summary

    def test_runtime_records_sched_events(self):
        rt = Runtime(n_workers=2, policy="worksteal", trace=True)
        for _ in range(10):
            rt.insert_task(lambda: None, tag="noop")
        rt.wait_all()
        events = rt.trace.sched_events
        assert sum(1 for e in events if e.kind == "push") == 10
        assert sum(1 for e in events if e.kind in ("pop", "steal")) == 10

    def test_sched_events_survive_executed_history_bounding(self):
        """The runtime keeps no executed Task objects, yet the trace keeps
        every task record and scheduling event, and the counter every task."""

        class Payload:
            pass

        rt = Runtime(n_workers=2, trace=True)
        payload = Payload()
        ref = weakref.ref(payload)
        for i in range(30):
            rt.insert_task(lambda p: None, kwargs={"p": payload}, name=f"t{i}")
        rt.wait_all()
        del payload
        gc.collect()
        assert ref() is None
        assert rt.tasks_executed == 30
        assert len(rt.trace) == 30
        assert sum(1 for e in rt.trace.sched_events if e.kind == "push") == 30
        assert sum(1 for e in rt.trace.sched_events if e.kind in ("pop", "steal")) == 30


# -- runtime / solver / CLI wiring ------------------------------------------------


class TestPolicyWiring:
    def test_runtime_canonicalizes_policy(self):
        assert Runtime(policy="ws").policy == "worksteal"
        assert Runtime(policy="heft").policy == "blevel"

    def test_runtime_rejects_unknown_policy_and_mode(self):
        with pytest.raises(ValueError):
            Runtime(policy="lifo")
        with pytest.raises(ValueError):
            Runtime(information_mode="psychic")

    def test_solver_precedence_kwarg_over_config(self):
        from repro.solver import MVNSolver

        with MVNSolver(policy="fifo") as solver:
            assert solver.runtime.policy == "fifo"
        with MVNSolver() as solver:
            assert solver.runtime.policy == "prio"

    def test_cli_accepts_every_alias(self):
        from repro.cli import build_parser

        parser = build_parser()
        for alias in ACCEPTED_POLICIES:
            args = parser.parse_args(["mvn", "--grid", "4", "--policy", alias])
            assert args.policy == alias


# -- stress: drain without deadlock under every policy ----------------------------


@pytest.mark.slow
@pytest.mark.timeout(120)
class TestStress:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_8_workers_500_tasks_drain_without_deadlock(self, policy):
        """8 workers, 600 tasks in tangled chains: the DAG must drain."""
        rng = np.random.default_rng(hash(policy) % (2**32))
        rt = Runtime(n_workers=8, policy=policy, trace=True)
        handles = [rt.register(np.zeros(1), name=f"h{i}", home=i % 8) for i in range(40)]
        tasks = []
        for i in range(600):
            h = handles[int(rng.integers(0, len(handles)))]
            mode = READWRITE if rng.random() < 0.5 else READ
            tasks.append(rt.insert_task(lambda x: None, (h, mode), name=f"t{i}", tag="stress"))

        finished = []
        worker = threading.Thread(target=lambda: finished.append(rt.wait_all()), daemon=True)
        worker.start()
        worker.join(timeout=90.0)
        assert not worker.is_alive(), f"{policy}: wait_all deadlocked (watchdog hit)"
        assert len(finished) == 1 and len(finished[0]) == 600
        assert len(rt.trace) == 600
        assert rt.trace.tag_counts()["stress"] == 600
