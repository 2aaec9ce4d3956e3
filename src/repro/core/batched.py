"""Window-batched X-Sketch: the stream-rate variant.

The paper's Algorithm 1 runs the Short-Term-Filtering query and the
Potential fit on *every arrival* of an untracked item -- cheap in C++,
dominant in Python (the reproduction band flags exactly this).  The
batched variant buffers one window's arrivals as (item, count) pairs
and does the per-item work once per window at the transition:

* tracked items add their full count to their Stage-2 slot (identical
  to per-arrival counting -- addition commutes);
* untracked items bulk-update Stage 1 and face the positivity /
  Potential check once, on the complete window count.

Semantics vs :class:`~repro.core.xsketch.XSketch`: final counter states
are identical; the only difference is that per-arrival mode evaluates
the Potential gate on *partially accumulated* current-window counts as
well, so it can promote strictly more items (promotions whose full-
window view fails the gate).  Batched mode is therefore at least as
precise, misses nothing whose complete windows pass the gate, and the
no-collision equivalence property to the exact oracle holds for it too
(``tests/test_core/test_batched.py``).  Throughput is several times
higher because the hot loop is a dict increment.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Mapping

from repro.config import XSketchConfig
from repro.core.reports import SimplexReport
from repro.core.stage1 import Stage1
from repro.core.stage2 import Stage2
from repro.core.xsketch import XSketchStats, report_order
from repro.errors import MergeError
from repro.hashing.family import HashFamily, ItemId, make_family


class BatchedXSketch:
    """Drop-in X-Sketch variant with per-window batch processing.

    Exposes the same stream protocol (``insert`` / ``end_window`` /
    ``run_window`` / ``reports`` / ``stats``) as
    :class:`~repro.core.xsketch.XSketch`.
    """

    #: window-batched: arrival order inside a window does not matter
    #: beyond first-arrival key order, so callers may hand over one
    #: ``{item: count}`` map per window (:meth:`ingest_counts`)
    counts_ingest = True

    def __init__(
        self,
        config: XSketchConfig,
        seed: int = 0,
        family: HashFamily = None,
        rng: random.Random = None,
        recorder=None,
    ):
        self.config = config
        shared_family = family if family is not None else make_family(config.hash_family, seed)
        shared_rng = rng if rng is not None else random.Random(seed)
        from repro.obs.recorder import NULL_RECORDER

        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.stage1 = Stage1(
            config, family=shared_family, seed=seed, rng=shared_rng,
            recorder=self.recorder,
        )
        self.stage2 = Stage2(
            config, family=shared_family, seed=seed, rng=shared_rng,
            recorder=self.recorder,
        )
        self.window = 0
        self._reports: List[SimplexReport] = []
        self._buffer: Dict[ItemId, int] = {}

    def insert(self, item: ItemId) -> None:
        """Buffer one arrival (all per-item work happens at end_window)."""
        buffer = self._buffer
        buffer[item] = buffer.get(item, 0) + 1

    def ingest_counts(self, counts: Mapping[ItemId, int]) -> None:
        """Buffer a ``{item: count}`` map (the runtime/service hot path).

        The map's key order is the first-arrival order of its items; the
        buffer keeps it, so the window flush visits items exactly as if
        they had arrived one by one.
        """
        buffer = self._buffer
        if not buffer:
            buffer.update(counts)
            return
        for item, count in counts.items():
            buffer[item] = buffer.get(item, 0) + count

    def ingest_batch(self, items) -> None:
        """Buffer a batch of arrivals (aggregated first, C-level)."""
        self.ingest_counts(Counter(items))

    def end_window(self) -> List[SimplexReport]:
        """Flush the window buffer, then run the Stage-2 transition."""
        window = self.window
        p = self.config.task.p
        slot = window % p
        stage1 = self.stage1
        stage2 = self.stage2
        for item, count in self._buffer.items():
            cell = stage2.lookup(item)
            if cell is not None:
                cell.counts[slot] += count
                continue
            promotion = stage1.insert_batch(item, window, count)
            if promotion is not None:
                stage2.try_insert(promotion, window)
        self._buffer = {}
        reports = stage2.end_window(window)
        stage1.end_window(window)
        self._reports.extend(reports)
        self.window += 1
        return reports

    def run_window(self, items) -> List[SimplexReport]:
        """Convenience: buffer a whole window of arrivals, then close it."""
        self.ingest_batch(items)
        return self.end_window()

    @property
    def reports(self) -> List[SimplexReport]:
        """All reports emitted so far, in emission order."""
        return list(self._reports)

    def merge(self, other: "BatchedXSketch") -> "BatchedXSketch":
        """Fold another batched sketch into this one.

        The sharded runtime's compaction / re-shard path; requirements
        mirror :meth:`repro.core.xsketch.XSketch.merge` plus the batched
        invariant that both peers sit at a window boundary (empty
        arrival buffers -- a buffer is working state and has no merge
        semantics).
        """
        if not isinstance(other, BatchedXSketch):
            raise MergeError(
                f"cannot merge BatchedXSketch with {type(other).__name__}"
            )
        if self.config != other.config:
            raise MergeError("cannot merge batched sketches with different configurations")
        if self.window != other.window:
            raise MergeError(
                f"cannot merge batched sketches at different windows "
                f"({self.window} vs {other.window}); merge at a window boundary"
            )
        if self._buffer or other._buffer:
            raise MergeError(
                "merge only at a window boundary (arrival buffer not empty)"
            )
        self.stage1.merge(other.stage1)
        self.stage2.merge(other.stage2, self.window)
        self._reports = sorted(self._reports + other._reports, key=report_order)
        return self

    @property
    def memory_bytes(self) -> float:
        """Accounted memory across both stages (the window buffer is
        working storage, not sketch state)."""
        return self.stage1.memory_bytes + self.stage2.memory_bytes

    def metrics_registry(self, registry=None):
        """Canonical metrics view (same catalog as :class:`XSketch`)."""
        from repro.obs.collect import collect_xsketch

        return collect_xsketch(self, registry)

    @property
    def stats(self) -> XSketchStats:
        """Operational counters (same schema as :class:`XSketch`)."""
        return XSketchStats(
            windows=self.window,
            stage1_arrivals=self.stage1.arrivals,
            stage1_fits=self.stage1.fits,
            promotions=self.stage1.promotions,
            stage2_tracked=len(self.stage2),
            inserts_empty=self.stage2.inserts_empty,
            replacements_won=self.stage2.replacements_won,
            replacements_lost=self.stage2.replacements_lost,
            evictions_zero=self.stage2.evictions_zero,
            reports=len(self._reports),
        )
