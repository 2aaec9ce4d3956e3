"""X-Sketch: the full two-stage algorithm (Section III-D).

Usage follows the stream protocol::

    sketch = XSketch(XSketchConfig(task=SimplexTask(k=1)), seed=7)
    for window_items in stream.windows():
        for item in window_items:
            sketch.insert(item)
        reports = sketch.end_window()

``insert`` implements Algorithm 1; ``end_window`` runs the Stage-2
transition procedure (Algorithm 2, which also emits the reports) and the
Stage-1 cleaning policy, then advances the window counter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.compat import FrozenSlots
from repro.config import XSketchConfig
from repro.core.reports import SimplexReport
from repro.core.stage1 import Stage1
from repro.core.stage2 import Stage2
from repro.errors import MergeError
from repro.hashing.family import HashFamily, ItemId, make_family
from repro.obs.recorder import NULL_RECORDER


def report_order(report: SimplexReport):
    """Canonical report ordering: by window, then item (shard-stable).

    Reports of a single sketch arrive in bucket-scan order; when several
    shards' reports are combined, this key makes the merged stream
    independent of shard interleaving.
    """
    return (report.report_window, str(report.item))


@dataclass(frozen=True)
class XSketchStats(FrozenSlots):
    """Operational counters of one X-Sketch run.

    Useful for understanding where traffic goes: how much of it the
    Short-Term Filter absorbed, how selective the Potential gate was,
    and how contended Stage 2's buckets were.
    """

    __slots__ = (
        "windows",
        "stage1_arrivals",
        "stage1_fits",
        "promotions",
        "stage2_tracked",
        "inserts_empty",
        "replacements_won",
        "replacements_lost",
        "evictions_zero",
        "reports",
    )

    windows: int
    stage1_arrivals: int
    stage1_fits: int
    promotions: int
    stage2_tracked: int
    inserts_empty: int
    replacements_won: int
    replacements_lost: int
    evictions_zero: int
    reports: int

    @property
    def promotion_rate(self) -> float:
        """Fraction of Stage-1 arrivals that passed the Potential gate."""
        return self.promotions / self.stage1_arrivals if self.stage1_arrivals else 0.0


class XSketch:
    """The Simplex-Sketch.

    Args:
        config: problem + algorithm parameters; ``config.update_rule``
            selects XS-CM vs XS-CU.
        seed: seeds both the hash family and the replacement RNG.
        family: optionally share a prebuilt hash family.
        rng: optionally inject the randomness source (replacement coin
            flips and the LogLog structure), for deterministic tests.
        recorder: observability recorder shared by both stages
            (``repro.obs.Recorder``); defaults to the no-op recorder,
            which leaves the insert hot path uninstrumented.  The
            decision *counters* are available either way through
            :meth:`metrics_registry`; a live recorder adds the
            Potential / W_min / occupancy histograms and trace events.
    """

    #: per-arrival: the Potential gate sees partial window counts, so
    #: arrival order matters and a window cannot be handed over as a
    #: ``{item: count}`` map (the window-batched engines set this True)
    counts_ingest = False

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

    def insert(self, item: ItemId) -> None:
        """Process one arrival of ``item`` in the current window (Algorithm 1)."""
        if self.stage2.record_arrival(item, self.window):
            return
        promotion = self.stage1.insert(item, self.window)
        if promotion is not None:
            self.stage2.try_insert(promotion, self.window)

    def ingest_batch(self, items) -> None:
        """Process a batch of arrivals (per-arrival semantics item by item).

        Exists so every engine speaks the batch protocol the runtime and
        service layers dispatch on; for the per-arrival engine it is the
        plain insert loop.
        """
        insert = self.insert
        for item in items:
            insert(item)

    def end_window(self) -> List[SimplexReport]:
        """Close the current window; returns this window's reports."""
        reports = self.stage2.end_window(self.window)
        self.stage1.end_window(self.window)
        self._reports.extend(reports)
        self.window += 1
        return reports

    def run_window(self, items) -> List[SimplexReport]:
        """Convenience: insert a whole window of arrivals, then close it."""
        insert = self.insert
        for item in items:
            insert(item)
        return self.end_window()

    @property
    def reports(self) -> List[SimplexReport]:
        """All reports emitted so far, in emission order."""
        return list(self._reports)

    def merge(self, other: "XSketch") -> "XSketch":
        """Fold another X-Sketch into this one.

        The fallback merge path of the sharded runtime (re-sharding and
        checkpoint compaction).  Requirements: identical configuration,
        identical seed-derived hash family, and both sketches paused at
        the same window boundary.  Stage 1 merges counter-wise; Stage 2
        merges by weight election (see :meth:`Stage2.merge`); the report
        streams interleave in canonical :func:`report_order`.
        """
        if self.config != other.config:
            raise MergeError("cannot merge X-Sketches with different configurations")
        if self.window != other.window:
            raise MergeError(
                f"cannot merge X-Sketches at different windows "
                f"({self.window} vs {other.window}); merge at a window boundary"
            )
        self.stage1.merge(other.stage1)
        self.stage2.merge(other.stage2, self.window)
        self._reports = sorted(self._reports + other._reports, key=report_order)
        return self

    def query_tracked_frequencies(self, item: ItemId) -> Optional[List[int]]:
        """Last-p-window frequencies of a tracked item (exact, Theorem 2)."""
        cell = self.stage2.lookup(item)
        if cell is None:
            return None
        # During a window the freshest complete frequency is the previous
        # window's; the ring is read as of the last closed window.
        return cell.frequencies_ending_at(self.window)

    @property
    def memory_bytes(self) -> float:
        """Accounted memory across both stages."""
        return self.stage1.memory_bytes + self.stage2.memory_bytes

    def metrics_registry(self, registry=None):
        """Canonical metrics view of this sketch (``repro.obs`` catalog).

        Decision counters are synced from the stages' plain-int counters
        at call time (exact, zero hot-path cost); when a live recorder
        is attached its histograms and tower-overflow counters merge in.
        Collecting several sketches into one ``registry`` sums them.
        """
        from repro.obs.collect import collect_xsketch

        return collect_xsketch(self, registry)

    @property
    def stats(self) -> XSketchStats:
        """Operational counters accumulated so far."""
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
