"""Tests for X-Sketch checkpoint/restore."""

import pytest

from repro.config import XSketchConfig
from repro.core.serialize import (
    load_xsketch,
    restore_xsketch,
    save_xsketch,
    snapshot_xsketch,
)
from repro.core.xsketch import XSketch
from repro.errors import ConfigurationError
from repro.fitting.simplex import SimplexTask
from repro.streams.datasets import make_dataset


def _fresh(structure="tower", seed=9):
    config = XSketchConfig(
        task=SimplexTask.paper_default(1), memory_kb=20.0, stage1_structure=structure
    )
    return XSketch(config, seed=seed)


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("structure", ["tower", "cm", "cu", "cold", "loglog"])
    def test_restored_sketch_continues_identically(self, structure):
        """Run half the stream, checkpoint, restore, run the rest: the
        report stream must match an uninterrupted run bit-for-bit."""
        trace = make_dataset("ip_trace", n_windows=24, window_size=600, seed=2)
        windows = list(trace.windows())

        uninterrupted = _fresh(structure)
        for window in windows:
            uninterrupted.run_window(window)

        first_half = _fresh(structure)
        for window in windows[:12]:
            first_half.run_window(window)
        snapshot = snapshot_xsketch(first_half)
        resumed = restore_xsketch(snapshot, seed=9)
        for window in windows[12:]:
            resumed.run_window(window)

        assert [r.instance for r in resumed.reports] == [
            r.instance for r in uninterrupted.reports
        ]
        assert resumed.window == uninterrupted.window

    def test_file_roundtrip(self, tmp_path):
        trace = make_dataset("synthetic", n_windows=12, window_size=400, seed=3)
        sketch = _fresh()
        for window in trace.windows():
            sketch.run_window(window)
        path = tmp_path / "sketch.json"
        save_xsketch(sketch, path)
        loaded = load_xsketch(path, seed=9)
        assert [r.instance for r in loaded.reports] == [r.instance for r in sketch.reports]
        assert loaded.window == sketch.window

    def test_snapshot_preserves_tracked_cells(self):
        sketch = _fresh()
        for window in range(10):
            sketch.run_window(["lin"] * (5 + 3 * window) + ["pad"] * 5)
        snapshot = snapshot_xsketch(sketch)
        resumed = restore_xsketch(snapshot, seed=9)
        original_cell = sketch.stage2.lookup("lin")
        restored_cell = resumed.stage2.lookup("lin")
        assert original_cell is not None and restored_cell is not None
        assert restored_cell.counts == original_cell.counts
        assert restored_cell.w_str == original_cell.w_str

    def test_version_check(self):
        sketch = _fresh()
        snapshot = snapshot_xsketch(sketch)
        snapshot["format_version"] = 99
        with pytest.raises(ConfigurationError):
            restore_xsketch(snapshot)

    def test_geometry_mismatch_rejected(self):
        sketch = _fresh()
        snapshot = snapshot_xsketch(sketch)
        snapshot["stage1_arrays"][0] = snapshot["stage1_arrays"][0][:-1]
        with pytest.raises(ConfigurationError):
            restore_xsketch(snapshot, seed=9)


class TestBatchedSnapshot:
    def _batched(self, seed=9):
        from repro.core.batched import BatchedXSketch

        config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=20.0)
        return BatchedXSketch(config, seed=seed)

    def test_batched_roundtrip_continues_identically(self):
        trace = make_dataset("ip_trace", n_windows=20, window_size=500, seed=4)
        windows = list(trace.windows())
        uninterrupted = self._batched()
        for window in windows:
            uninterrupted.run_window(window)
        half = self._batched()
        for window in windows[:10]:
            half.run_window(window)
        resumed = restore_xsketch(snapshot_xsketch(half), seed=9)
        assert type(resumed).__name__ == "BatchedXSketch"
        for window in windows[10:]:
            resumed.run_window(window)
        assert [r.instance for r in resumed.reports] == [
            r.instance for r in uninterrupted.reports
        ]

    def test_mid_window_snapshot_rejected(self):
        sketch = self._batched()
        sketch.insert("x")  # buffer non-empty
        with pytest.raises(ConfigurationError):
            snapshot_xsketch(sketch)


class TestVectorizedSnapshot:
    def _vectorized(self, seed=9):
        from repro.core.vectorized import VectorizedXSketch

        config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=20.0)
        return VectorizedXSketch(config, seed=seed)

    def test_vectorized_roundtrip_continues_identically(self):
        trace = make_dataset("ip_trace", n_windows=20, window_size=500, seed=4)
        windows = list(trace.windows())
        uninterrupted = self._vectorized()
        for window in windows:
            uninterrupted.run_window(window)
        half = self._vectorized()
        for window in windows[:10]:
            half.run_window(window)
        snapshot = snapshot_xsketch(half)
        assert snapshot["variant"] == "vectorized"
        resumed = restore_xsketch(snapshot, seed=9)
        assert type(resumed).__name__ == "VectorizedXSketch"
        for window in windows[10:]:
            resumed.run_window(window)
        assert [r.instance for r in resumed.reports] == [
            r.instance for r in uninterrupted.reports
        ]

    def test_snapshot_geometry_matches_scalar_tower(self):
        """The numpy tower flattens to the scalar CounterArray layout, so
        a vectorized snapshot restores as a per-arrival sketch (and back)
        with identical Stage-1 counters."""
        trace = make_dataset("ip_trace", n_windows=8, window_size=400, seed=6)
        sketch = self._vectorized()
        for window in trace.windows():
            sketch.run_window(window)
        snapshot = snapshot_xsketch(sketch)
        crossed = dict(snapshot, variant="per-arrival")
        scalar = restore_xsketch(crossed, seed=9)
        assert type(scalar).__name__ == "XSketch"
        assert snapshot_xsketch(scalar)["stage1_arrays"] == snapshot["stage1_arrays"]

    def test_mid_window_snapshot_rejected(self):
        sketch = self._vectorized()
        sketch.insert("x")  # buffer non-empty
        with pytest.raises(ConfigurationError):
            snapshot_xsketch(sketch)


class TestSnapshotEncoding:
    """The snapshot builds counters with ``tolist()`` and reports as
    direct field dicts; both must equal the per-element conversion and
    ``dataclasses.asdict`` they replace, as dicts and as JSON bytes."""

    @staticmethod
    def _reference(sketch):
        import dataclasses

        from repro.core.serialize import _counter_arrays_of
        from repro.core.vectorized import VectorizedXSketch

        if isinstance(sketch, VectorizedXSketch):
            arrays = [[int(v) for v in level.reshape(-1)] for level in sketch.tower.levels]
        else:
            arrays = [list(array) for array in _counter_arrays_of(sketch.stage1.filter)]
        reports = [dataclasses.asdict(report) for report in sketch.reports]
        return arrays, reports

    @pytest.mark.parametrize("engine", ["xsketch", "batched", "vectorized"])
    def test_snapshot_equals_per_element_conversion(self, engine):
        import json

        from repro.core.engines import make_engine

        config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=20.0)
        sketch = make_engine(config, seed=9, engine=engine)
        for window in make_dataset("ip_trace", n_windows=16, window_size=500, seed=4).windows():
            sketch.run_window(window)
        assert sketch.reports
        snapshot = snapshot_xsketch(sketch)
        arrays, reports = self._reference(sketch)
        assert snapshot["stage1_arrays"] == arrays
        assert all(type(v) is int for level in snapshot["stage1_arrays"] for v in level)
        assert snapshot["reports"] == reports
        old = dict(snapshot, stage1_arrays=arrays, reports=reports)
        assert json.dumps(snapshot) == json.dumps(old)
