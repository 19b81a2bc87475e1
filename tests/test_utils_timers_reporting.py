"""Unit tests for repro.utils.timers and repro.utils.reporting."""

import threading

import numpy as np
import pytest

from repro.utils.reporting import Table, ascii_heatmap, format_seconds, format_si
from repro.utils.timers import TimingRegistry, add_timing, collect_timings, timed


class TestTimingRegistry:
    def test_region_accumulates(self):
        reg = TimingRegistry()
        for _ in range(3):
            with reg.region("phase"):
                pass
        assert reg.count("phase") == 3
        assert reg.total("phase") >= 0.0

    def test_add_and_mean(self):
        reg = TimingRegistry()
        reg.add("x", 1.0)
        reg.add("x", 3.0)
        assert reg.mean("x") == pytest.approx(2.0)
        assert reg.total("x") == pytest.approx(4.0)

    def test_missing_region_is_zero(self):
        reg = TimingRegistry()
        assert reg.total("nope") == 0.0
        assert reg.count("nope") == 0

    def test_merge(self):
        a, b = TimingRegistry(), TimingRegistry()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 5.0)
        a.merge(b)
        assert a.total("x") == pytest.approx(3.0)
        assert a.total("y") == pytest.approx(5.0)

    def test_summary_keys(self):
        reg = TimingRegistry()
        reg.add("x", 1.0)
        summary = reg.summary()
        assert set(summary["x"]) == {"total", "count", "mean", "min", "max"}

    def test_timed_with_none_registry(self):
        with timed("anything"):
            pass  # no active collector: must not raise
        add_timing("anything", 1.0)
        with collect_timings() as reg:
            pass
        assert reg.names() == []

    def test_timed_with_registry(self):
        with collect_timings() as reg:
            with timed("r"):
                pass
            add_timing("s", 2.0)
        assert reg.count("r") == 1
        assert reg.total("s") == pytest.approx(2.0)


class TestCollectTimings:
    def test_nested_collectors_merge_outward(self):
        with collect_timings() as outer:
            add_timing("before", 1.0)
            with collect_timings() as inner:
                add_timing("x", 2.0)
                with collect_timings() as innermost:
                    add_timing("x", 3.0)
            add_timing("after", 4.0)
        assert innermost.total("x") == pytest.approx(3.0)
        assert inner.total("x") == pytest.approx(5.0) and inner.count("x") == 2
        assert inner.names() == ["x"]
        assert outer.names() == ["after", "before", "x"]
        assert outer.total("x") == pytest.approx(5.0) and outer.count("x") == 2

    def test_threads_collect_separately(self):
        """Each thread records into its own collector, never the other's."""
        barrier = threading.Barrier(2, timeout=10)
        registries = {}

        def work(name: str, calls: int) -> None:
            with collect_timings() as reg:
                barrier.wait()  # both collectors are active at once
                for _ in range(calls):
                    add_timing(name, 1.0)
                barrier.wait()
            registries[name] = reg

        threads = [threading.Thread(target=work, args=(name, calls))
                   for name, calls in (("a", 3), ("b", 5))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert registries["a"].names() == ["a"] and registries["a"].count("a") == 3
        assert registries["b"].names() == ["b"] and registries["b"].count("b") == 5

    def test_pipeline_detection_timings_count_one_detection(self, medium_spd):
        """Each detection of a pipeline run stamps its own phases only;
        the enclosing collector sees them all."""
        from repro import MVNSolver, SolverConfig
        from repro.query import QueryPipeline, execute_pipeline

        n = medium_spd.shape[0]
        pipeline = QueryPipeline(name="sweep")
        pipeline.add_sigma("field", medium_spd, mean=np.zeros(n))
        pipeline.add_excursion_sweep("sweep", [0.0, 0.5], sigma="field", rng=0)
        config = SolverConfig(method="dense", n_samples=128, tile_size=8)
        with collect_timings() as outer, MVNSolver(config) as solver:
            out = execute_pipeline(pipeline, solver)
        detections = [leg for analysis in out["sweep"]
                      for leg in (analysis.positive, analysis.negative)]
        assert len(detections) == 4
        for result in detections:
            assert result.details["timings"]["marginals"]["count"] == 1.0
            assert result.details["timings"]["factorize"]["count"] == 1.0
        assert outer.count("marginals") == 4


class TestFormatting:
    def test_format_seconds_ranges(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.05).endswith("ms")
        assert format_seconds(2.0).endswith("s")
        assert "m" in format_seconds(90.0)

    def test_format_si(self):
        assert format_si(0) == "0"
        assert format_si(1500) == "1.5K"
        assert format_si(2_000_000).endswith("M")


class TestTable:
    def test_render_contains_rows(self):
        t = Table(["a", "b"], title="demo")
        t.add_row([1, 2.5])
        text = t.render()
        assert "demo" in text and "2.5" in text

    def test_row_length_mismatch(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_csv_export(self, tmp_path):
        t = Table(["a", "b"])
        t.add_row([1, 2])
        path = t.to_csv(tmp_path / "out.csv")
        assert path.exists()
        assert "a,b" in path.read_text().splitlines()[0]


class TestAsciiHeatmap:
    def test_shape_preserved(self):
        img = ascii_heatmap(np.arange(12).reshape(3, 4))
        lines = img.splitlines()
        assert len(lines) == 3
        assert all(len(line) == 4 for line in lines)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.arange(5))

    def test_handles_nan(self):
        arr = np.array([[np.nan, 1.0], [0.0, 2.0]])
        img = ascii_heatmap(arr)
        assert img.splitlines()[0][0] == " "

    def test_constant_array(self):
        img = ascii_heatmap(np.ones((2, 2)))
        assert len(img.splitlines()) == 2
