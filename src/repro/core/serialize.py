"""Checkpointing: snapshot and restore an X-Sketch's full state.

Long-running stream monitors need to survive process restarts without
losing their window history.  A snapshot captures the configuration,
the window counter, every Stage-1 counter, every Stage-2 cell, the
emitted reports and the replacement RNG state, as a JSON-serializable
dict; :func:`restore_xsketch` rebuilds an equivalent sketch that
continues the stream bit-for-bit.

Only the Stage-1 structures backed by :class:`CounterArray` rings
(tower / cm / cu / cold / loglog -- i.e. all of them) are supported.
The vectorized engine's numpy tower serializes through the same flat
per-level layout: its ``(n_logical, s)`` matrices flatten C-order to
exactly the ``pos * s + slot`` indexing of a :class:`CounterArray`
ring, so vectorized snapshots are geometry-compatible with scalar
tower snapshots of the same configuration.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.config import XSketchConfig
from repro.core.batched import BatchedXSketch
from repro.core.reports import SimplexReport
from repro.core.stage2 import Stage2Cell
from repro.core.vectorized import VectorizedXSketch
from repro.core.xsketch import XSketch
from repro.errors import ConfigurationError
from repro.fitting.simplex import SimplexTask
from repro.sketch.counters import CounterArray
from repro.sketch.windowed import WindowedColdFilter, WindowedLogLog, _WindowedArrays

FORMAT_VERSION = 1

#: snapshot ``variant`` tag per engine class (and back).
_VARIANTS = {
    XSketch: "per-arrival",
    BatchedXSketch: "batched",
    VectorizedXSketch: "vectorized",
}


def _counter_arrays_of(filter_) -> List[CounterArray]:
    """The CounterArray rings of a windowed filter, in a fixed order."""
    if isinstance(filter_, _WindowedArrays):
        return list(filter_.levels)
    if isinstance(filter_, WindowedColdFilter):
        return list(filter_.layer1) + list(filter_.layer2)
    if isinstance(filter_, WindowedLogLog):
        return list(filter_.registers)
    raise ConfigurationError(
        f"cannot snapshot Stage-1 structure {type(filter_).__name__}"
    )


def _stage1_arrays(sketch) -> List[List[int]]:
    """Flat per-level Stage-1 counter lists, engine-independent."""
    if isinstance(sketch, VectorizedXSketch):
        # C-order flatten of (n_logical, s) == CounterArray's pos*s+slot;
        # tolist() yields the same Python ints as int(v) per element
        return [level.reshape(-1).tolist() for level in sketch.tower.levels]
    return [list(array) for array in _counter_arrays_of(sketch.stage1.filter)]


def _load_stage1(sketch, saved: List[List[int]]) -> None:
    """Restore flat per-level counter lists into a rebuilt sketch."""
    if isinstance(sketch, VectorizedXSketch):
        levels = sketch.tower.levels
        if len(levels) != len(saved) or any(
            level.size != len(values) for level, values in zip(levels, saved)
        ):
            raise ConfigurationError("snapshot geometry does not match the rebuilt sketch")
        import numpy as np

        for level, values in zip(levels, saved):
            level[:] = np.asarray(values, dtype=np.int64).reshape(level.shape)
        return
    arrays = _counter_arrays_of(sketch.stage1.filter)
    if len(arrays) != len(saved) or any(
        len(array) != len(values) for array, values in zip(arrays, saved)
    ):
        raise ConfigurationError("snapshot geometry does not match the rebuilt sketch")
    for array, values in zip(arrays, saved):
        for index, value in enumerate(values):
            array.set(index, value)


def snapshot_xsketch(sketch, shard: Dict = None) -> Dict:
    """Capture the complete state of ``sketch`` as a JSON-able dict.

    Accepts every engine -- :class:`XSketch`, :class:`BatchedXSketch`
    and :class:`VectorizedXSketch`.  The buffered engines (batched,
    vectorized) must be snapshotted at a window boundary: a non-empty
    arrival buffer is working state, not sketch state.

    ``shard`` optionally embeds shard metadata (shard id, partitioner
    spec) so a snapshot taken inside the sharded runtime is
    self-describing; :func:`restore_xsketch` ignores the entry, which
    keeps single-shard snapshots restorable on their own.
    """
    if getattr(sketch, "_buffer", None):
        raise ConfigurationError(
            f"snapshot a {type(sketch).__name__} only at a window boundary "
            "(arrival buffer not empty)"
        )
    config = sketch.config
    stage1_arrays = _stage1_arrays(sketch)
    cells = []
    for bucket_index, bucket in enumerate(sketch.stage2.buckets):
        for cell in bucket:
            cells.append(
                {
                    "bucket": bucket_index,
                    "item": cell.item,
                    "w_str": cell.w_str,
                    "counts": list(cell.counts),
                }
            )
    reports = [_report_record(report) for report in sketch.reports]
    snapshot = {
        "format_version": FORMAT_VERSION,
        "variant": _VARIANTS.get(type(sketch), "per-arrival"),
        "task": dataclasses.asdict(config.task),
        "config": {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if field.name != "task"
        },
        "seed_state": _encode_state(sketch.stage2._rng.getstate()),
        "window": sketch.window,
        "stage1_arrays": stage1_arrays,
        "stage2_cells": cells,
        "reports": reports,
    }
    if shard is not None:
        snapshot["shard"] = dict(shard)
    return snapshot


def restore_xsketch(snapshot: Dict, seed: int = 0, recorder=None) -> XSketch:
    """Rebuild an X-Sketch from :func:`snapshot_xsketch` output.

    ``seed`` must be the seed the original sketch was built with (the
    hash family derives from it; the replacement RNG state is restored
    exactly from the snapshot).  ``recorder`` optionally attaches an
    observability recorder to the rebuilt sketch (registries are not
    part of snapshots; a restored sketch starts with fresh metrics).
    """
    if snapshot.get("format_version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot version {snapshot.get('format_version')!r}"
        )
    task = SimplexTask(**snapshot["task"])
    config = XSketchConfig(task=task, **snapshot["config"])
    variant = snapshot.get("variant", "per-arrival")
    if variant == "batched":
        sketch = BatchedXSketch(config, seed=seed, recorder=recorder)
    elif variant == "vectorized":
        sketch = VectorizedXSketch(config, seed=seed, recorder=recorder)
    elif variant == "per-arrival":
        sketch = XSketch(config, seed=seed, recorder=recorder)
    else:
        raise ConfigurationError(f"unknown snapshot variant {variant!r}")
    sketch.window = snapshot["window"]
    sketch.stage2._rng.setstate(_decode_state(snapshot["seed_state"]))

    _load_stage1(sketch, snapshot["stage1_arrays"])

    for record in snapshot["stage2_cells"]:
        cell = Stage2Cell(record["item"], record["w_str"], config.task.p)
        cell.counts = list(record["counts"])
        sketch.stage2.buckets[record["bucket"]].append(cell)
        sketch.stage2._index[record["item"]] = cell

    sketch._reports = [SimplexReport(**_report_kwargs(r)) for r in snapshot["reports"]]
    return sketch


def save_xsketch(sketch: XSketch, path: Union[str, Path]) -> None:
    """Write a snapshot to ``path`` as JSON."""
    Path(path).write_text(json.dumps(snapshot_xsketch(sketch)))


def load_xsketch(path: Union[str, Path], seed: int = 0) -> XSketch:
    """Read a snapshot written by :func:`save_xsketch`."""
    return restore_xsketch(json.loads(Path(path).read_text()), seed=seed)


def _report_record(report: SimplexReport) -> Dict:
    """The snapshot record of one report: ``dataclasses.asdict`` output,
    built directly (asdict deep-copies every field; the report history
    grows every window and is snapshotted at every boundary)."""
    return {
        "item": report.item,
        "start_window": report.start_window,
        "report_window": report.report_window,
        "lasting_time": report.lasting_time,
        "coefficients": tuple(report.coefficients),
        "mse": report.mse,
    }


def _report_kwargs(record: Dict) -> Dict:
    record = dict(record)
    record["coefficients"] = tuple(record["coefficients"])
    return record


def _encode_state(state) -> List:
    """random.Random state -> JSON-able nested lists."""
    return [state[0], list(state[1]), state[2]]


def _decode_state(encoded) -> tuple:
    return (encoded[0], tuple(encoded[1]), encoded[2])
