"""Count maps as the ingest currency of the window-batched engines.

``BatchedXSketch`` and ``VectorizedXSketch`` collapse a window into a
``{key: count}`` buffer before any sketch work, so per-item ``insert``,
``ingest_batch`` and ``ingest_counts`` must be three spellings of one
buffer merge: identical buffer content, identical key order (the order
Stage 2 sees promotions in), identical reports.
"""

from collections import Counter

import pytest

from repro.config import XSketchConfig
from repro.core.engines import COUNTS_ENGINES, ENGINE_NAMES, make_engine
from repro.fitting.simplex import SimplexTask
from repro.streams.datasets import make_dataset

SEED = 5


def _config():
    return XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=20.0)


def _windows(dataset):
    return [list(w) for w in make_dataset(dataset, 16, 500, seed=3).windows()]


def _records(reports):
    return [
        (r.item, r.start_window, r.report_window, r.lasting_time,
         tuple(r.coefficients), r.mse)
        for r in reports
    ]


def test_counts_capability_names_the_window_batched_engines():
    for engine in ENGINE_NAMES:
        sketch = make_engine(_config(), seed=SEED, engine=engine)
        assert sketch.counts_ingest is (engine in COUNTS_ENGINES)
        assert hasattr(sketch, "ingest_counts") is sketch.counts_ingest


@pytest.mark.parametrize("engine", COUNTS_ENGINES)
@pytest.mark.parametrize("dataset", ["synthetic", "ip_trace"])
def test_insert_batch_and_counts_leave_identical_buffers(engine, dataset):
    by_item, by_batch, by_counts = (
        make_engine(_config(), seed=SEED, engine=engine) for _ in range(3)
    )
    for window in _windows(dataset):
        for item in window:
            by_item.insert(item)
        # several calls per window, so the non-empty-buffer merge runs too
        for start in range(0, len(window), 128):
            by_batch.ingest_batch(window[start:start + 128])
            by_counts.ingest_counts(Counter(window[start:start + 128]))
        expected = list(by_item._buffer.items())
        assert list(by_batch._buffer.items()) == expected
        assert list(by_counts._buffer.items()) == expected
        reports = _records(by_item.end_window())
        assert _records(by_batch.end_window()) == reports
        assert _records(by_counts.end_window()) == reports
    assert by_item.reports  # the traces produce reports
    assert _records(by_batch.reports) == _records(by_item.reports)
    assert _records(by_counts.reports) == _records(by_item.reports)
