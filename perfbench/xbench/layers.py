"""Per-layer numbers of a traced run.

Three sources, named in the table the benchmark prints:

* spans recorded in the primary and replica processes around the public
  callables of :mod:`xbench.hooks` (self time from
  :func:`xbench.spans.attribute`, so the table plus a residual row sums
  to the primary's wall clock over the timed interval);
* what the service exposes: ``pipeline_phase_seconds`` and the
  ``runtime_*`` counters on ``/metrics``, worker busy time and routed
  items from ``/stats?engine=1``;
* the benchmark's own replay of the routed sub-batches (pickled IPC
  bytes, the engine alone) and, for the time-travel layers a workload's
  service runs with the tier off, an in-process pass over the first
  windows of the same trace (:func:`standalone_pass`).
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Sequence, Tuple

from xbench.spans import SpanRecorder, attribute, total_duration

#: per-layer metrics in BENCHMARK.json order: name -> unit
PER_LAYER: Dict[str, str] = {
    "protocol.decode_us_per_item": "us",
    "protocol.frame_bytes_per_item": "count",
    "window.submit_self_us_per_item": "us",
    "phase.snapshot_ms_per_window": "ms",
    "phase.publish_ms_per_window": "ms",
    "partition.split_us_per_item": "us",
    "sharded.dispatch_self_us_per_item": "us",
    "sharded.flush_ms_per_window": "ms",
    "phase.shard_ms_per_window": "ms",
    "phase.checkpoint_ms_per_window": "ms",
    "phase.merge_ms_per_window": "ms",
    "sharded.merged_sketch_ms_per_window": "ms",
    "sharded.slim_summary_ms_per_window": "ms",
    "sharded.ipc_bytes_per_item": "count",
    "sharded.shard_skew": "ratio",
    "sharded.merged_cache_hit_ratio": "ratio",
    "sharded.restarts_retries": "count",
    "engine.busy_us_per_item": "us",
    "engine.busy_ratio": "ratio",
    "engine.alone_mops": "Mops",
    "temporal.observe_us_per_item": "us",
    "temporal.seal_ms_per_window": "ms",
    "temporal.range_query_ms": "ms",
    "publisher.publish_ms_per_window": "ms",
    "publisher.delta_bytes_per_window": "count",
    "replica.apply_ms_per_window": "ms",
    "replica.full_syncs": "count",
    "http.primary_reports_ms": "ms",
    "http.primary_history_ms": "ms",
    "http.replica_reports_ms": "ms",
    "http.replica_history_ms": "ms",
    "trace.residual_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: metrics whose layer a workload's service may run with the tier off;
#: they fall back to the in-process pass when the service made no call
TIME_TRAVEL_LAYERS = (
    "phase.publish_ms_per_window",
    "sharded.merged_sketch_ms_per_window",
    "sharded.slim_summary_ms_per_window",
    "sharded.merged_cache_hit_ratio",
    "temporal.observe_us_per_item",
    "temporal.seal_ms_per_window",
    "temporal.range_query_ms",
    "publisher.publish_ms_per_window",
    "publisher.delta_bytes_per_window",
    "replica.apply_ms_per_window",
    "replica.full_syncs",
    "http.primary_reports_ms",
    "http.primary_history_ms",
    "http.replica_reports_ms",
    "http.replica_history_ms",
)

#: windows the in-process pass replays
STANDALONE_WINDOWS = 24

#: windows of routed sub-batches pickled and replayed through the engine
#: alone (per-item rates; bounded so a faster service keeps runs short)
REPLAY_WINDOWS = 60

_SAMPLE = re.compile(r'^([A-Za-z_:][\w:]*)(?:\{([^}]*)\})?\s+(\S+)$')


def parse_metrics(text: str) -> Dict[Tuple[str, str], float]:
    """Prometheus text -> ``{(name, labels): value}`` (labels verbatim)."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return samples


def phase_ms(samples, phase: str) -> Tuple[float, int]:
    """Mean ``pipeline_phase_seconds`` of ``phase`` in ms, and its count."""
    labels = f'phase="{phase}"'
    count = samples.get(("pipeline_phase_seconds_count", labels), 0.0)
    total = samples.get(("pipeline_phase_seconds_sum", labels), 0.0)
    return (total / count * 1e3 if count else 0.0), int(count)


def _per(value: float, n: int, scale: float) -> float:
    return value / n * scale if n else 0.0


def span_layers(primary: Sequence, replica: Sequence, t0: float, t1: float,
                items: int, windows: int) -> Tuple[Dict[str, float], Dict, Dict]:
    """Per-layer numbers from the spans; also the self-time table."""
    table = attribute(primary, t0, t1)
    own = table["self"]

    def self_of(*names):
        return sum(own.get(name, 0.0) for name in names)

    def mean_ms(spans, name):
        total, n = total_duration(spans, name, t0, t1)
        return _per(total, n, 1e3), n

    out = {
        "protocol.decode_us_per_item": _per(
            self_of("protocol.decode", "protocol.parse"), items, 1e6),
        "window.submit_self_us_per_item": _per(self_of("window.submit"), items, 1e6),
        "partition.split_us_per_item": _per(self_of("partition.split"), items, 1e6),
        "sharded.dispatch_self_us_per_item": _per(
            self_of("sharded.ingest_batch"), items, 1e6),
        "sharded.flush_ms_per_window": _per(
            self_of("sharded.flush_window"), windows, 1e3),
        "trace.residual_ratio": table["residual"] / table["wall"],
    }
    calls = {}
    for metric, name in (
        ("sharded.merged_sketch_ms_per_window", "sharded.merged_sketch"),
        ("sharded.slim_summary_ms_per_window", "sharded.slim_summary"),
        ("temporal.seal_ms_per_window", "temporal.seal"),
        ("publisher.publish_ms_per_window", "publisher.publish"),
    ):
        out[metric] = _per(self_of(name), windows, 1e3)
        calls[metric] = table["calls"].get(name, 0)
    out["temporal.observe_us_per_item"] = _per(
        self_of("temporal.observe"), items, 1e6)
    calls["temporal.observe_us_per_item"] = table["calls"].get("temporal.observe", 0)
    for metric, spans, name in (
        ("temporal.range_query_ms", primary, "temporal.range_query"),
        ("http.primary_reports_ms", primary, "http.reports"),
        ("http.primary_history_ms", primary, "http.history"),
        ("http.replica_reports_ms", replica, "http.reports"),
        ("http.replica_history_ms", replica, "http.history"),
    ):
        out[metric], calls[metric] = mean_ms(spans, name)
    apply_total, n_apply = total_duration(replica, "replica.apply", t0, t1)
    out["replica.apply_ms_per_window"] = _per(apply_total, windows, 1e3)
    calls["replica.apply_ms_per_window"] = n_apply
    return out, calls, table


def routed_replay(windows: Sequence[Sequence[str]], batch: int, config,
                  n_shards: int, seed: int) -> Dict[str, float]:
    """Route the sent batches like the coordinator, pickle them, replay them.

    Returns the pickled IPC bytes per item (what the command queues carry
    for ``("ingest", part)``) and the engine-alone throughput: the same
    per-shard sub-batches through ``make_engine(..., engine="vectorized")``
    in this one process, with a window close per shard per window.
    """
    from multiprocessing.reduction import ForkingPickler

    from repro.core.engines import make_engine
    from repro.runtime.partition import KeyPartitioner
    from repro.service.protocol import iter_window_batches

    partitioner = KeyPartitioner(n_shards, seed=seed,
                                 hash_family=config.hash_family)
    routed: List[List[List[List[str]]]] = []
    ipc_bytes = 0
    items = 0
    for window in windows:
        per_window = [[] for _ in range(n_shards)]
        for wire_batch in iter_window_batches(window, batch):
            items += len(wire_batch)
            for shard, part in enumerate(partitioner.split(wire_batch)):
                if part:
                    ipc_bytes += len(ForkingPickler.dumps(("ingest", part)))
                    per_window[shard].append(part)
        routed.append(per_window)
    engines = [make_engine(config, seed=seed, engine="vectorized")
               for _ in range(n_shards)]
    start = time.perf_counter()
    for per_window in routed:
        for engine, parts in zip(engines, per_window):
            for part in parts:
                engine.ingest_batch(part)
            engine.end_window()
    elapsed = time.perf_counter() - start
    return {
        "sharded.ipc_bytes_per_item": ipc_bytes / items,
        "engine.alone_mops": items / elapsed / 1e6,
    }


def standalone_pass(windows: Sequence[Sequence[str]], batch: int,
                    make_reference) -> Dict[str, float]:
    """The time-travel layers in-process, over ``windows`` of the trace.

    An inline sharded engine feeds a temporal store; at each boundary the
    slim summary and ladder deltas go through a (listener-less) publisher,
    the DELTA's ladder records are applied to a mirror store, and both
    tiers' query builders answer one ``/reports``, one range and one
    ``/history``.  Used only for metrics whose layer the workload's
    service runs with the tier off.
    """
    from repro.replica.publisher import SnapshotPublisher
    from repro.runtime.sharded import ShardedXSketch
    from repro.service.http import history_response, reports_response
    from repro.service.protocol import encode_payload, iter_window_batches
    from repro.service.window import ServiceSnapshot
    from repro.temporal.store import TemporalStore
    from repro.temporal.wire import (
        apply_window_delta,
        export_ladder_state,
        import_ladder_state,
        snapshot_range_reports,
    )
    from xbench.hooks import install_engine_side

    engine = make_reference()
    rec = SpanRecorder()
    saved = {
        (owner, attr): owner.__dict__[attr]
        for owner, attrs in (
            (ShardedXSketch, ("ingest_batch", "flush_window", "merged_sketch",
                              "slim_summary")),
            (TemporalStore, ("observe_items", "on_window", "range_reports")),
            (SnapshotPublisher, ("publish_boundary",)),
        )
        for attr in attrs
    }
    install_engine_side(rec, ShardedXSketch, TemporalStore)
    rec.patch(SnapshotPublisher, "publish_boundary", "publisher.publish")
    apply = rec.wrap(apply_window_delta, "replica.apply")
    primary_reports = rec.wrap(reports_response, "http.primary_reports")
    primary_history = rec.wrap(history_response, "http.primary_history")
    replica_reports = rec.wrap(reports_response, "http.replica_reports")
    replica_history = rec.wrap(history_response, "http.replica_history")
    try:
        store = TemporalStore(seed=0)
        store.capture_deltas = True
        engine.temporal = store
        publisher = SnapshotPublisher("127.0.0.1", 0)
        publisher.temporal_store = store
        mirror = import_ladder_state(export_ladder_state(store))
        full_syncs = 1
        publish_phase = 0.0
        delta_bytes = 0
        items = 0
        t0 = time.perf_counter()
        for index, window in enumerate(windows):
            for wire_batch in iter_window_batches(window, batch):
                engine.ingest_batch(wire_batch)
                items += len(wire_batch)
            engine.flush_window()
            snapshot = ServiceSnapshot(
                window=index + 1, items_at_boundary=items,
                reports=tuple(engine.reports), updated_at=0.0,
            )
            start = time.perf_counter()
            frame = publisher.publish_boundary(
                snapshot, engine.slim_summary(), store.take_deltas()
            )
            publish_phase += time.perf_counter() - start
            delta_bytes += len(encode_payload(frame)) + 4
            for record in frame["ladder_deltas"]:
                apply(mirror, record)
            query = {"range": f"{max(0, index - 7)}:{index}"}
            for params in ({}, query):
                primary_reports(index + 1, snapshot.reports, params,
                                store.range_reports)
                pinned = mirror.snapshot
                replica_reports(
                    index + 1, snapshot.reports, params,
                    lambda a, b, pinned=pinned: snapshot_range_reports(pinned, a, b),
                )
            primary_history(store.snapshot, {})
            replica_history(mirror.snapshot, {})
        t1 = time.perf_counter()
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)
        engine.close()
    n = len(windows)
    own = attribute(rec.spans, t0, t1)["self"]

    def mean_ms(name):
        total, calls = total_duration(rec.spans, name, t0, t1)
        return _per(total, calls, 1e3)

    hits, misses = engine.merged_cache_hits, engine.merged_cache_misses
    return {
        "phase.publish_ms_per_window": publish_phase / n * 1e3,
        "sharded.merged_sketch_ms_per_window": _per(
            own.get("sharded.merged_sketch", 0.0), n, 1e3),
        "sharded.slim_summary_ms_per_window": _per(
            own.get("sharded.slim_summary", 0.0), n, 1e3),
        "sharded.merged_cache_hit_ratio": hits / (hits + misses),
        "temporal.observe_us_per_item": _per(
            own.get("temporal.observe", 0.0), items, 1e6),
        "temporal.seal_ms_per_window": _per(own.get("temporal.seal", 0.0), n, 1e3),
        "temporal.range_query_ms": mean_ms("temporal.range_query"),
        "publisher.publish_ms_per_window": _per(
            own.get("publisher.publish", 0.0), n, 1e3),
        "publisher.delta_bytes_per_window": delta_bytes / n,
        "replica.apply_ms_per_window": _per(
            total_duration(rec.spans, "replica.apply", t0, t1)[0], n, 1e3),
        "replica.full_syncs": float(full_syncs),
        "http.primary_reports_ms": mean_ms("http.primary_reports"),
        "http.primary_history_ms": mean_ms("http.primary_history"),
        "http.replica_reports_ms": mean_ms("http.replica_reports"),
        "http.replica_history_ms": mean_ms("http.replica_history"),
    }
