"""Which public callables the traced run wraps, and under which span name.

The same table serves the traced ``repro serve`` / ``repro replica``
processes (through :mod:`xbench.boot`) and the in-process pass that
measures the time-travel layers on workloads whose service runs them
off.  Functions that the service and replica modules imported by name
are patched in those modules, where the call sites look them up.
"""

from __future__ import annotations

from xbench.spans import SpanRecorder


def _n_items(args, kwargs, result) -> int:
    return len(args[1])


def _parsed_items(args, kwargs, result) -> int:
    return len(result[1]) if result and result[0] == "batch" else 0


def install_primary(rec: SpanRecorder) -> None:
    """Wrap the primary's ingest, window-close, publish and query layers."""
    import repro.service.server as server
    from repro.replica.publisher import SnapshotPublisher
    from repro.runtime.partition import KeyPartitioner
    from repro.runtime.sharded import ShardedXSketch
    from repro.service.window import WindowManager
    from repro.temporal.store import TemporalStore

    rec.patch(server, "decode_payload", "protocol.decode")
    rec.patch(server, "parse_message", "protocol.parse", _parsed_items)
    rec.patch(server, "reports_response", "http.reports")
    rec.patch(server, "history_response", "http.history")
    rec.patch(WindowManager, "submit", "window.submit", _n_items)
    rec.patch(KeyPartitioner, "split", "partition.split", _n_items)
    install_engine_side(rec, ShardedXSketch, TemporalStore)
    rec.patch(SnapshotPublisher, "publish_boundary", "publisher.publish")


def install_engine_side(rec: SpanRecorder, sharded, store) -> None:
    """The coordinator and temporal-store callables (both call sites)."""
    rec.patch(sharded, "ingest_batch", "sharded.ingest_batch", _n_items)
    rec.patch(sharded, "flush_window", "sharded.flush_window")
    rec.patch(sharded, "merged_sketch", "sharded.merged_sketch")
    rec.patch(sharded, "slim_summary", "sharded.slim_summary")
    rec.patch(store, "observe_items", "temporal.observe", _n_items)
    rec.patch(store, "on_window", "temporal.seal")
    rec.patch(store, "range_reports", "temporal.range_query")


def install_replica(rec: SpanRecorder) -> None:
    """Wrap the replica's delta apply and its query builders."""
    import repro.replica.server as replica

    rec.patch(replica, "apply_window_delta", "replica.apply")
    rec.patch(replica, "reports_response", "http.reports")
    rec.patch(replica, "history_response", "http.history")
