"""Configuration of the streaming service (:mod:`repro.service`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: Hard ceiling on a single ingest frame / line, in bytes.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Overload policies for a full per-connection queue.
OVERLOAD_POLICIES = ("pushback", "drop")

#: What the service does when the engine raises during ingest/flush.
ENGINE_ERROR_POLICIES = ("shutdown", "degrade")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service layer needs besides the engine itself.

    Attributes:
        host: interface to bind both listeners to.
        ingest_port: TCP port of the ingest listener (0 = ephemeral).
        http_port: TCP port of the HTTP query listener (0 = ephemeral).
        window_size: items per count-based window; the service closes
            the engine's window every ``window_size`` ingested items.
        window_seconds: optional wall-clock window tick.  When set, a
            ticker closes the open window every ``window_seconds`` even
            if it has fewer than ``window_size`` items (idle ticks with
            a completely empty window are skipped).
        micro_batch: ingest coalescing for the per-arrival engine only:
            arrivals are buffered and handed to it in ``ingest_batch``
            calls of at most this many items (window boundaries always
            force a flush).  Engines with the ``counts_ingest``
            capability (the window-batched ``batched`` / ``vectorized``
            engines, sharded or not) get one ``{key: count}`` map per
            window instead.
        queue_batches: per-connection queue capacity, counted in wire
            batches.  This is the overload bound: a connection can never
            hold more than ``queue_batches`` unprocessed frames.
        overload: what to do when a connection's queue is full:
            ``"pushback"`` stops reading the socket (TCP backpressure),
            ``"drop"`` discards the new batch and counts it.
        max_frame_bytes: reject frames/lines larger than this.
        checkpoint_dir: when set, the drain path writes a final
            checkpoint here and ``/checkpoint`` without an explicit
            directory uses it.
        drain_timeout: seconds the shutdown path waits for connected
            producers to finish before severing them.
        on_engine_error: what to do when the engine raises during
            ingest or window close: ``"shutdown"`` fails fast (record
            the failure, stop the service — the historical behaviour),
            ``"degrade"`` records the failure but keeps the server up,
            serving the last-good ``/reports`` snapshot and a degraded
            ``/healthz`` while further ingest is discarded.  A
            supervised sharded engine recovers *below* this policy —
            worker crashes it can heal never surface here.
        publish_port: when set, a slim-snapshot publisher listens on
            this TCP port (0 = ephemeral) and streams sequenced
            SNAPSHOT/DELTA/HEARTBEAT frames to read replicas at every
            window boundary (docs/REPLICA.md).  ``None`` disables
            publishing entirely.
        publish_history: DELTA frames retained for resume-from-sequence;
            a reconnecting replica further behind than this falls back
            to a full SNAPSHOT sync.
        publish_heartbeat: seconds between HEARTBEAT frames (replicas
            derive their staleness bound from these between windows).
        trace: enable causal span tracing (docs/OBSERVABILITY.md,
            "Pipeline spans"): one span tree per window boundary from
            ingest frame to publish, exported by ``GET /trace`` and
            ``repro trace``.  Off by default — the off path keeps the
            ``NULL_TRACER`` gate and records nothing.
        trace_capacity: bounded span-sink size (events); the oldest
            spans are dropped first, and the loss is visible as
            ``obs_trace_events_total{status="dropped"}``.
    """

    host: str = "127.0.0.1"
    ingest_port: int = 0
    http_port: int = 0
    publish_port: Optional[int] = None
    publish_history: int = 512
    publish_heartbeat: float = 1.0
    window_size: int = 2000
    window_seconds: Optional[float] = None
    micro_batch: int = 512
    queue_batches: int = 64
    overload: str = "pushback"
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    checkpoint_dir: Optional[str] = None
    drain_timeout: float = 30.0
    on_engine_error: str = "shutdown"
    trace: bool = False
    trace_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ConfigurationError(
                f"window_size must be positive, got {self.window_size}"
            )
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ConfigurationError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.micro_batch <= 0:
            raise ConfigurationError(
                f"micro_batch must be positive, got {self.micro_batch}"
            )
        if self.queue_batches <= 0:
            raise ConfigurationError(
                f"queue_batches must be positive, got {self.queue_batches}"
            )
        if self.overload not in OVERLOAD_POLICIES:
            raise ConfigurationError(
                f"overload must be one of {OVERLOAD_POLICIES}, got {self.overload!r}"
            )
        if self.max_frame_bytes <= 0:
            raise ConfigurationError(
                f"max_frame_bytes must be positive, got {self.max_frame_bytes}"
            )
        if not 0 <= self.ingest_port <= 65535 or not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"ports must be in [0, 65535], got ingest={self.ingest_port} "
                f"http={self.http_port}"
            )
        if self.publish_port is not None and not 0 <= self.publish_port <= 65535:
            raise ConfigurationError(
                f"publish_port must be in [0, 65535], got {self.publish_port}"
            )
        if self.publish_history < 1:
            raise ConfigurationError(
                f"publish_history must be >= 1, got {self.publish_history}"
            )
        if self.publish_heartbeat <= 0:
            raise ConfigurationError(
                f"publish_heartbeat must be positive, got {self.publish_heartbeat}"
            )
        if self.drain_timeout <= 0:
            raise ConfigurationError(
                f"drain_timeout must be positive, got {self.drain_timeout}"
            )
        if self.on_engine_error not in ENGINE_ERROR_POLICIES:
            raise ConfigurationError(
                f"on_engine_error must be one of {ENGINE_ERROR_POLICIES}, "
                f"got {self.on_engine_error!r}"
            )
        if self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
