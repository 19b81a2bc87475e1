"""The user-facing runtime facade.

Mirrors the StarPU usage pattern of the paper's code:

.. code-block:: python

    rt = Runtime(n_workers=8, policy="prio")
    h = rt.register(tile, name="Sigma[0,0]")
    rt.insert_task(potrf_kernel, (h, READWRITE), name="potrf(0,0)", priority=10)
    ...
    rt.wait_all()

Tasks accumulate in a :class:`~repro.runtime.graph.TaskGraph`;
:meth:`Runtime.wait_all` executes the DAG with a pool of worker threads that
pop ready tasks from the configured scheduler.  NumPy/BLAS tile kernels
release the GIL, so threads provide genuine parallelism for the linear
algebra workload of the paper.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

from repro.runtime.estimates import INFORMATION_MODES, TaskEstimator, make_estimator
from repro.runtime.graph import TaskGraph
from repro.runtime.handle import AccessMode, DataHandle
from repro.runtime.scheduler import SchedulerBase, canonical_policy, make_scheduler
from repro.runtime.task import Task, TaskError, TaskState
from repro.runtime.trace import ExecutionTrace, TaskRecord

__all__ = ["Runtime"]


class Runtime:
    """Task-based runtime executing DAGs of tile tasks on worker threads.

    Parameters
    ----------
    n_workers : int, optional
        Number of worker threads.  ``1`` (the default) executes tasks
        sequentially in topological order with no threading overhead, which
        is also the deterministic mode used by most unit tests.
    policy : str
        Scheduling policy name or alias understood by
        :func:`repro.runtime.scheduler.make_scheduler` (``"fifo"``,
        ``"prio"``, ``"locality"``, ``"blevel"``, ``"worksteal"``; see
        ``docs/runtime.md`` for the policy table).  Canonicalized at
        construction.
    trace : bool
        Record an :class:`~repro.runtime.trace.ExecutionTrace` of task
        start/end times, worker assignment, and every scheduling decision
        (queue depths, steals, placement reasons).
    information_mode : {"exact", "estimated", "blind"}
        What duration-aware policies (``blevel``) know about task costs:
        trust ``Task.cost``, predict from the calibrated per-tag cost model,
        or nothing (see :mod:`repro.runtime.estimates`).
    estimator : TaskEstimator, optional
        Explicit estimator instance overriding ``information_mode`` — e.g.
        ``ModelEstimator.from_calibration(calibrate())`` for estimates
        anchored to measured local kernel rates.

    Notes
    -----
    A runtime has an explicit lifetime: it accepts tasks until
    :meth:`close` is called (the context-manager form drains pending tasks
    and closes on exit), after which any submission or execution attempt
    raises :class:`RuntimeError`.  Long-lived owners such as
    :class:`repro.solver.MVNSolver` close their runtime when they are
    closed.

    A runtime keeps one task graph.  Every routine of the package that
    submits a graph and waits for it holds :attr:`lock` from its first
    :meth:`insert_task` through :meth:`wait_all`, so threads that share a
    runtime (two models of one solver, queried from two threads) run their
    graphs one after the other instead of mixing them.  :meth:`wait_all`
    itself does not take the lock: a graph may be drained from another
    thread.
    """

    def __init__(
        self,
        n_workers: int = 1,
        policy: str = "prio",
        trace: bool = False,
        information_mode: str = "exact",
        estimator: TaskEstimator | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.policy = canonical_policy(policy)
        if estimator is None:
            if information_mode not in INFORMATION_MODES:
                raise ValueError(
                    f"unknown information mode {information_mode!r}; "
                    f"expected one of {INFORMATION_MODES}"
                )
            estimator = make_estimator(information_mode)
        self.estimator = estimator
        self.information_mode = self.estimator.mode
        self.graph = TaskGraph()
        self.trace: ExecutionTrace | None = ExecutionTrace() if trace else None
        #: lifetime count of executed tasks; the Task objects themselves (and
        #: the argument buffers they reference) are dropped after each
        #: ``wait_all``, so long-lived owners retain nothing per sweep
        self.tasks_executed = 0
        #: held from a caller's first ``insert_task`` through its ``wait_all``;
        #: re-entrant, so a holder may call another routine that takes it
        self.lock = threading.RLock()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------
    @classmethod
    def ensure(cls, runtime: "Runtime | None") -> "Runtime":
        """Return ``runtime``, or a fresh serial runtime when ``None``.

        The single fallback used by every routine that accepts an optional
        runtime (tile/TLR factorizations, the PMVN sweep), so ``runtime=None``
        means the same thing everywhere: deterministic one-worker execution.
        """
        if runtime is None:
            return cls(n_workers=1)
        runtime._check_open()
        return runtime

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut the runtime down; further task submission/execution raises.

        Closing is idempotent.  Pending (never-executed) tasks are discarded;
        call :meth:`wait_all` first to drain them.
        """
        self._closed = True
        self.graph = TaskGraph()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this Runtime has been closed; create a new Runtime (or a new "
                "MVNSolver) instead of reusing one whose lifetime has ended"
            )

    # -- registration / submission ------------------------------------------------
    def register(self, data: Any = None, name: str = "", home: int | None = None) -> DataHandle:
        """Register a payload and return its handle."""
        self._check_open()
        return DataHandle(data, name=name, home=home)

    def insert_task(
        self,
        func: Callable[..., Any],
        *accesses: tuple[DataHandle, AccessMode],
        kwargs: dict[str, Any] | None = None,
        name: str = "",
        priority: int = 0,
        cost: float = 0.0,
        tag: str = "",
    ) -> Task:
        """Submit a task; dependencies are inferred from the declared accesses."""
        self._check_open()
        task = Task(
            func,
            accesses=accesses,
            kwargs=kwargs,
            name=name,
            priority=priority,
            cost=cost,
            tag=tag,
        )
        self.graph.add_task(task)
        return task

    def submit(self, task: Task) -> Task:
        """Submit an already-constructed :class:`Task`."""
        self._check_open()
        self.graph.add_task(task)
        return task

    # -- execution -----------------------------------------------------------------
    def wait_all(self, raise_on_error: bool = True) -> list[Task]:
        """Execute every pending task, respecting dependencies.

        Returns the list of executed tasks.  If any task raised and
        ``raise_on_error`` is true, a :class:`TaskError` aggregating the
        failures is raised after the DAG has drained (tasks whose
        dependencies failed are marked FAILED without running).
        """
        self._check_open()
        pending = [t for t in self.graph.tasks if t.state == TaskState.PENDING]
        if not pending:
            return []
        if self.n_workers == 1:
            failures = self._run_serial(pending)
        else:
            failures = self._run_threaded(pending)
        self.tasks_executed += len(pending)
        # reset the graph so the runtime can be reused for the next phase
        self.graph = TaskGraph()
        if failures and raise_on_error:
            raise TaskError(failures)
        return pending

    # -- serial execution ------------------------------------------------------
    def _run_serial(self, pending: list[Task]) -> list[tuple[Task, BaseException]]:
        failures: list[tuple[Task, BaseException]] = []
        failed: set[Task] = set()
        order = self.graph.topological_order()
        for task in order:
            if task.state != TaskState.PENDING:
                continue
            if any(p in failed for p in self.graph.predecessors[task]):
                task.state = TaskState.FAILED
                failed.add(task)
                continue
            task.state = TaskState.RUNNING
            start = time.perf_counter()
            try:
                task.execute()
            except BaseException as exc:  # noqa: BLE001 - task bodies are user code
                task.state = TaskState.FAILED
                task.exception = exc
                failed.add(task)
                failures.append((task, exc))
            else:
                task.state = TaskState.DONE
            end = time.perf_counter()
            task.worker = 0
            if self.trace is not None:
                self.trace.record(TaskRecord(task.name, task.tag, 0, start, end))
        return failures

    # -- threaded execution ------------------------------------------------------
    def _run_threaded(self, pending: list[Task]) -> list[tuple[Task, BaseException]]:
        scheduler: SchedulerBase = make_scheduler(
            self.policy, self.n_workers, estimator=self.estimator, trace=self.trace
        )
        scheduler.prepare(self.graph, pending)
        graph = self.graph
        indegree = {t: sum(1 for p in graph.predecessors[t] if p.state == TaskState.PENDING) for t in pending}
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        remaining = [len(pending)]
        failures: list[tuple[Task, BaseException]] = []

        def mark_ready(task: Task) -> None:
            task.state = TaskState.READY
            scheduler.push(task)

        with lock:
            for task in pending:
                if indegree[task] == 0:
                    mark_ready(task)

        def propagate_failure(task: Task) -> None:
            """Mark all transitive successors of a failed task as FAILED."""
            stack = [task]
            while stack:
                current = stack.pop()
                for succ in graph.successors[current]:
                    if succ.state in (TaskState.PENDING, TaskState.READY):
                        succ.state = TaskState.FAILED
                        remaining[0] -= 1
                        stack.append(succ)

        def complete(task: Task, exc: BaseException | None) -> None:
            with work_available:
                if exc is None:
                    task.state = TaskState.DONE
                    for succ in graph.successors[task]:
                        if succ.state != TaskState.PENDING:
                            continue
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            mark_ready(succ)
                else:
                    task.state = TaskState.FAILED
                    task.exception = exc
                    failures.append((task, exc))
                    propagate_failure(task)
                remaining[0] -= 1
                work_available.notify_all()

        def worker_loop(worker_id: int) -> None:
            while True:
                with work_available:
                    while True:
                        if remaining[0] <= 0:
                            return
                        task = scheduler.pop(worker_id)
                        if task is not None:
                            break
                        work_available.wait(timeout=0.05)
                if task.state != TaskState.READY:
                    continue
                task.state = TaskState.RUNNING
                task.worker = worker_id
                start = time.perf_counter()
                exc: BaseException | None = None
                try:
                    task.execute()
                except BaseException as err:  # noqa: BLE001
                    exc = err
                end = time.perf_counter()
                if self.trace is not None:
                    self.trace.record(TaskRecord(task.name, task.tag, worker_id, start, end))
                complete(task, exc)

        threads = [
            threading.Thread(target=worker_loop, args=(wid,), name=f"repro-worker-{wid}", daemon=True)
            for wid in range(self.n_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return failures

    # -- convenience ----------------------------------------------------------------
    def map(
        self,
        func: Callable[..., Any],
        items: Iterable[Any],
        name: str = "map",
        tag: str = "map",
    ) -> list[Task]:
        """Submit one independent task per item; ``func(item)`` per task."""
        tasks = []
        for i, item in enumerate(items):
            handle = DataHandle(item, name=f"{name}[{i}]")
            tasks.append(
                self.insert_task(func, (handle, AccessMode.READ), name=f"{name}[{i}]", tag=tag)
            )
        return tasks

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.wait_all()
        finally:
            self.close()
