"""Tests for runtime execution (serial/threaded), schedulers and traces."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.runtime import (
    READ,
    READWRITE,
    ExecutionTrace,
    FifoScheduler,
    LocalityScheduler,
    PriorityScheduler,
    Runtime,
    Task,
    TaskError,
    TaskState,
    make_scheduler,
)
from repro.runtime.trace import TaskRecord


class TestSchedulers:
    def test_fifo_order(self):
        s = FifoScheduler()
        t1, t2 = Task(lambda: None, name="a"), Task(lambda: None, name="b")
        s.push(t1)
        s.push(t2)
        assert s.pop() is t1
        assert s.pop() is t2
        assert s.pop() is None

    def test_priority_order(self):
        s = PriorityScheduler()
        low = Task(lambda: None, priority=1)
        high = Task(lambda: None, priority=10)
        s.push(low)
        s.push(high)
        assert s.pop() is high

    def test_priority_ties_fifo(self):
        s = PriorityScheduler()
        t1, t2 = Task(lambda: None, priority=5), Task(lambda: None, priority=5)
        s.push(t1)
        s.push(t2)
        assert s.pop() is t1

    def test_locality_prefers_home_worker(self):
        from repro.runtime import DataHandle, WRITE

        s = LocalityScheduler(n_workers=2)
        h0 = DataHandle(home=0)
        h1 = DataHandle(home=1)
        t0 = Task(lambda x: None, [(h0, WRITE)])
        t1 = Task(lambda x: None, [(h1, WRITE)])
        s.push(t0)
        s.push(t1)
        assert s.pop(worker=1) is t1
        assert s.pop(worker=0) is t0

    def test_locality_steals_when_empty(self):
        from repro.runtime import DataHandle, WRITE

        s = LocalityScheduler(n_workers=2)
        h0 = DataHandle(home=0)
        t0 = Task(lambda x: None, [(h0, WRITE)])
        s.push(t0)
        assert s.pop(worker=1) is t0

    def test_factory_aliases(self):
        assert isinstance(make_scheduler("eager"), FifoScheduler)
        assert isinstance(make_scheduler("prio"), PriorityScheduler)
        assert isinstance(make_scheduler("dmda", 2), LocalityScheduler)
        with pytest.raises(ValueError):
            make_scheduler("whatever")

    def test_len(self):
        s = PriorityScheduler()
        assert len(s) == 0
        s.push(Task(lambda: None))
        assert len(s) == 1


class TestRuntimeSerial:
    def test_tasks_run_in_dependency_order(self):
        rt = Runtime(n_workers=1)
        log = []
        h = rt.register(0, name="counter")
        for i in range(5):
            rt.insert_task(lambda _x, i=i: log.append(i), (h, READWRITE), name=f"t{i}")
        rt.wait_all()
        assert log == [0, 1, 2, 3, 4]

    def test_results_available(self):
        rt = Runtime(n_workers=1)
        h = rt.register(np.arange(4.0))
        task = rt.insert_task(lambda x: float(x.sum()), (h, READ))
        rt.wait_all()
        assert task.result == pytest.approx(6.0)
        assert task.state == TaskState.DONE

    def test_failure_raises_task_error(self):
        rt = Runtime(n_workers=1)

        def boom():
            raise RuntimeError("kaboom")

        rt.insert_task(boom, name="boom")
        with pytest.raises(TaskError, match="boom"):
            rt.wait_all()

    def test_failure_marks_dependents_failed(self):
        rt = Runtime(n_workers=1)
        h = rt.register(0)

        def boom(_x):
            raise ValueError("fail")

        t1 = rt.insert_task(boom, (h, READWRITE))
        t2 = rt.insert_task(lambda x: None, (h, READ))
        with pytest.raises(TaskError):
            rt.wait_all()
        assert t1.state == TaskState.FAILED
        assert t2.state == TaskState.FAILED

    def test_failure_suppressed_when_requested(self):
        rt = Runtime(n_workers=1)
        rt.insert_task(lambda: 1 / 0, name="div")
        executed = rt.wait_all(raise_on_error=False)
        assert len(executed) == 1

    def test_runtime_reusable_after_wait(self):
        rt = Runtime(n_workers=1)
        h = rt.register(np.zeros(2))
        rt.insert_task(lambda x: x + 1, (h, READWRITE))
        rt.wait_all()
        rt.insert_task(lambda x: x + 1, (h, READWRITE))
        rt.wait_all()
        assert np.all(h.get() == 2.0)

    def test_empty_wait_all(self):
        assert Runtime().wait_all() == []

    def test_serial_trace_records_every_task_in_order(self):
        rt = Runtime(n_workers=1, trace=True)
        h = rt.register(0, name="counter")
        for i in range(4):
            rt.insert_task(lambda _x: None, (h, READWRITE), name=f"t{i}",
                           tag="even" if i % 2 == 0 else "odd")
        rt.wait_all()
        records = list(rt.trace.records)
        assert [r.name for r in records] == ["t0", "t1", "t2", "t3"]
        assert {r.worker for r in records} == {0}
        assert all(r.start <= r.end <= later.start for r, later in zip(records, records[1:]))
        assert rt.trace.tag_counts() == {"even": 2, "odd": 2}

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Runtime(n_workers=0)

    def test_map_helper(self):
        rt = Runtime()
        tasks = rt.map(lambda x: x * 2, [1, 2, 3])
        rt.wait_all()
        assert [t.result for t in tasks] == [2, 4, 6]

    def test_executed_history_is_bounded(self):
        """Long-lived runtimes (solver sessions, serve shards) count every
        task they run but keep none of them: an executed Task — and the
        argument buffers it references — must be unreachable from the
        runtime once ``wait_all`` returns."""

        class Payload:
            pass

        rt = Runtime()
        refs = []
        for _ in range(3):
            payloads = [Payload() for _ in range(3)]
            refs += [weakref.ref(payload) for payload in payloads]
            rt.map(lambda payload: None, payloads)
            rt.wait_all()
            del payloads
        gc.collect()
        assert rt.tasks_executed == 9
        assert all(ref() is None for ref in refs)

    def test_context_manager_waits(self):
        results = []
        with Runtime() as rt:
            rt.insert_task(lambda: results.append(1))
        assert results == [1]


class TestRuntimeThreaded:
    @pytest.mark.parametrize("policy", ["fifo", "prio", "locality", "blevel", "worksteal"])
    def test_parallel_chain_correctness(self, policy):
        """A chain of dependent increments must serialize; independent chains overlap."""
        rt = Runtime(n_workers=4, policy=policy)
        arrays = [np.zeros(1) for _ in range(6)]
        handles = [rt.register(a, name=f"a{i}", home=i) for i, a in enumerate(arrays)]
        for _ in range(10):
            for h in handles:
                rt.insert_task(lambda x: None if x.__iadd__(1.0) is not None else None, (h, READWRITE))
        rt.wait_all()
        for a in arrays:
            assert a[0] == 10.0

    def test_parallel_results_match_serial(self, medium_spd):
        from repro.tile import TileMatrix, tiled_cholesky

        serial = tiled_cholesky(TileMatrix.from_dense(medium_spd, 10, lower_only=True), Runtime(1))
        parallel = tiled_cholesky(
            TileMatrix.from_dense(medium_spd, 10, lower_only=True), Runtime(4, policy="prio")
        )
        np.testing.assert_allclose(serial.to_dense(), parallel.to_dense(), rtol=1e-12)

    def test_parallel_failure_propagates(self):
        rt = Runtime(n_workers=3)
        h = rt.register(0)

        def boom(_x):
            raise RuntimeError("threaded failure")

        rt.insert_task(boom, (h, READWRITE))
        follow = rt.insert_task(lambda x: None, (h, READ))
        with pytest.raises(TaskError):
            rt.wait_all()
        assert follow.state == TaskState.FAILED

    def test_many_independent_tasks_all_execute(self):
        rt = Runtime(n_workers=8)
        counter = {"n": 0}
        lock = threading.Lock()

        def work():
            with lock:
                counter["n"] += 1

        for _ in range(200):
            rt.insert_task(work)
        rt.wait_all()
        assert counter["n"] == 200

    def test_trace_recorded(self):
        rt = Runtime(n_workers=2, trace=True)
        for _ in range(10):
            rt.insert_task(lambda: None, tag="noop")
        rt.wait_all()
        assert len(rt.trace) == 10
        assert rt.trace.tag_counts()["noop"] == 10


class TestExecutionTrace:
    def test_makespan_and_busy_time(self):
        trace = ExecutionTrace()
        trace.record(TaskRecord("a", "x", 0, 0.0, 1.0))
        trace.record(TaskRecord("b", "x", 1, 0.5, 2.0))
        assert trace.makespan == pytest.approx(2.0)
        assert trace.total_busy_time == pytest.approx(2.5)

    def test_efficiency_bounded(self):
        trace = ExecutionTrace()
        trace.record(TaskRecord("a", "x", 0, 0.0, 1.0))
        assert 0.0 < trace.parallel_efficiency(2) <= 1.0

    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.makespan == 0.0
        assert trace.parallel_efficiency(4) == 1.0

    def test_tag_breakdown(self):
        trace = ExecutionTrace()
        trace.record(TaskRecord("a", "gemm", 0, 0.0, 1.0))
        trace.record(TaskRecord("b", "gemm", 0, 1.0, 3.0))
        trace.record(TaskRecord("c", "potrf", 0, 3.0, 3.5))
        breakdown = trace.tag_breakdown()
        assert breakdown["gemm"] == pytest.approx(3.0)
        assert breakdown["potrf"] == pytest.approx(0.5)

    def test_worker_busy_time(self):
        trace = ExecutionTrace()
        trace.record(TaskRecord("a", "", 0, 0.0, 1.0))
        trace.record(TaskRecord("b", "", 1, 0.0, 2.0))
        busy = trace.worker_busy_time()
        assert busy[0] == pytest.approx(1.0)
        assert busy[1] == pytest.approx(2.0)

    def test_summary(self):
        trace = ExecutionTrace()
        trace.record(TaskRecord("a", "", 0, 0.0, 1.0))
        summary = trace.summary(n_workers=1)
        assert summary["tasks"] == 1.0
        assert summary["makespan"] == pytest.approx(1.0)
