"""``ShardedXSketch``: N X-Sketch shards behind one stream interface.

The coordinator hash-partitions every batch with a
:class:`repro.runtime.partition.KeyPartitioner` and fans the per-shard
sub-batches out to worker processes (``backend="process"``, the
default) or to in-process sketches (``backend="inline"``, used for
deterministic tests and as a zero-dependency fallback).  Both backends
run byte-identical sketch code, so they produce identical reports.

Sharding model
    Each shard owns a full :class:`XSketchConfig` worth of memory and a
    disjoint slice of the key space.  Per-key counters therefore never
    need cross-shard reconciliation: a window's reports are simply the
    union of the shards' reports, interleaved in canonical
    :func:`repro.core.xsketch.report_order`.

Protocol
    ``ingest_batch(items)`` adds a batch to the current window;
    ``flush_window()`` closes the window on every shard and returns the
    merged reports (aliased as ``end_window`` / ``run_window`` so the
    coordinator quacks like every other engine); ``report()`` returns
    all reports so far; ``checkpoint(directory)`` writes a shard-aware
    snapshot; ``merged_sketch()`` compacts all shards into one
    single-process :class:`XSketch` via the mergeable fallback path.

Ingest currency
    The window-batched engines (``batched``, ``vectorized``; engine
    capability ``counts_ingest``) only ever see a window as a
    ``{key: count}`` map, so the coordinator keeps the open window as
    one such map in first-arrival key order (``insert``,
    ``ingest_batch`` and ``ingest_counts`` all fold into it).  At
    ``flush_window`` it routes each distinct key once
    (:meth:`KeyPartitioner.split_counts`) and sends every shard its
    map as the payload of one ``("ingest", ...)`` command.  The
    per-arrival ``xsketch`` engine is order-sensitive inside a window,
    so it keeps the item-list path: batches are split per arrival and
    dispatched as they come.

Supervision (``supervised=True``, the default on the process backend)
    The coordinator holds an in-memory checkpoint of every shard, taken
    at window boundaries every ``auto_checkpoint_interval`` windows.
    When a worker exits without replying, or misses the reply deadline
    (wedged), the coordinator respawns it on fresh queues, restores the
    last checkpoint, fast-forwards it to the current window, replays
    the ingest payloads still sitting in the dead incarnation's command queue
    (nothing else — data the dead process had already consumed is
    gone), resends the in-flight command, and carries on.  The loss is
    recorded honestly: ``shard_restarts``, ``items_lost_estimate`` and
    ``command_retries`` feed the ``runtime_*`` metrics in
    :func:`repro.obs.collect.collect_sharded`, and :meth:`health`
    exposes the live view the service layer serves on ``/healthz``.
    Worker ``error`` replies (exceptions in sketch code) are *not*
    recovered — deterministic bugs would crash-loop; they still raise
    :class:`RuntimeShardError`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from queue import Empty
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import XSketchConfig
from repro.core.engines import COUNTS_ENGINES, make_engine, validate_engine
from repro.core.reports import SimplexReport
from repro.core.serialize import restore_xsketch, snapshot_xsketch
from repro.core.xsketch import XSketch, report_order
from repro.errors import ConfigurationError, RuntimeShardError
from repro.hashing.family import ItemId
from repro.obs.profile import PhaseProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import new_span_id
from repro.runtime.faults import Fault
from repro.runtime.partition import KeyPartitioner
from repro.runtime.worker import WorkerReport, payload_items, shard_worker_main

#: insert()-path buffering of the per-arrival engine: a shard's buffer
#: is flushed to its queue once it holds this many items (ingest_batch
#: sends immediately; window-batched engines send at flush_window).
DEFAULT_BATCH_SIZE = 2048

#: Seconds the coordinator waits for a worker reply before declaring
#: the shard wedged (dead workers are detected much faster via
#: ``is_alive`` polling).
DEFAULT_REPLY_TIMEOUT = 300.0

#: Default cap on supervised restarts across the runtime's lifetime —
#: a crash-looping deployment must eventually surface as an error.
DEFAULT_MAX_RESTARTS = 5

#: Seconds between reply polls while collecting (also the dead-worker
#: detection latency per shard).
_POLL_INTERVAL = 0.05

#: Command to resend after a restart, keyed by the reply kind the
#: coordinator was collecting when the shard died.
_RESEND_COMMANDS = {
    "end_window": ("end_window",),
    "stats": ("stats",),
    "metrics": ("metrics",),
    "trace": ("trace",),
    "checkpoint": ("checkpoint",),
    "stopped": ("stop",),
}


@dataclass(frozen=True)
class ShardStats:
    """Coordinator- plus worker-side counters of one shard."""

    shard_id: int
    #: arrivals the partitioner routed to this shard
    items_routed: int
    #: ingest commands sent to this shard
    batches_sent: int
    #: command-queue backlog at sampling time (None when the platform
    #: does not support qsize, e.g. macOS sem_getvalue)
    queue_depth: Optional[int]
    #: the worker's own counters (ingested items, busy time, sketch stats)
    worker: WorkerReport


@dataclass(frozen=True)
class ShardedStats:
    """A point-in-time view of the whole sharded runtime."""

    n_shards: int
    window: int
    items_routed: int
    reports: int
    #: X-Sketch merge() calls performed by compaction so far
    merge_count: int
    shards: Tuple[ShardStats, ...]

    @property
    def total_busy_seconds(self) -> float:
        """Summed sketch time across shards (> wall time when parallel)."""
        return sum(shard.worker.busy_seconds for shard in self.shards)


class ShardedXSketch:
    """Coordinator over ``n_shards`` X-Sketch workers.

    Args:
        config: per-shard X-Sketch configuration.  Every shard gets the
            full budget, so total memory is ``n_shards x config`` —
            sharding buys throughput and tracking capacity, not memory.
        n_shards: number of shards (>= 1).
        seed: base seed; shared by all shards so their hash families
            are identical, which keeps shard states merge-compatible
            for the compaction path.  Key routing uses a salted seed
            and is independent of the sketch hashes.
        backend: ``"process"`` (worker processes, spawn-safe) or
            ``"inline"`` (in-process shards; deterministic, no IPC).
        mp_context: multiprocessing start method for the process
            backend (``"spawn"`` by default — safe everywhere).
        batch_size: insert()-path buffer size per shard (per-arrival
            engine only; the window-batched engines keep the open
            window as one count map).
        reply_timeout: seconds to wait for worker replies before a
            non-replying but alive worker counts as wedged.
        snapshots: per-shard snapshot dicts to restore from (used by
            :func:`repro.runtime.checkpoint.load_sharded_checkpoint`).
        observability: attach a live ``repro.obs.Recorder`` (registry +
            trace ring) to every shard sketch.  Off by default — the
            canonical decision counters are available either way through
            :meth:`metrics_registry`; turning this on adds the
            algorithm histograms and the per-shard trace rings read by
            :meth:`trace_events`.
        supervised: self-heal dead or wedged workers from the last
            auto-checkpoint instead of raising (process backend only;
            see the module docstring).  Worker exceptions still raise.
        auto_checkpoint_interval: take an in-memory checkpoint of every
            shard at each ``interval``-th window boundary (0 disables —
            a restart then restores a blank shard).  Only meaningful
            with ``supervised=True`` on the process backend.
        max_restarts: total supervised restarts allowed across the
            runtime's lifetime before giving up with
            :class:`RuntimeShardError`.
        faults: deterministic fault plan (:mod:`repro.runtime.faults`)
            handed to the initial worker processes; replacements are
            always spawned fault-free.  Process backend only.
        engine: ingest representation per shard (``"xsketch"``,
            ``"batched"`` or ``"vectorized"``; see
            :mod:`repro.core.engines` and the engine-selection matrix in
            docs/RUNTIME.md).  All shards run the same engine; restarts
            restore the engine recorded in the shard snapshot.
        temporal: a :class:`repro.temporal.store.TemporalStore` to feed
            with the window lifecycle: every dispatched payload (item
            list or count map) goes to its open-window frequency
            sketch, and each
            :meth:`flush_window` seals the closed window into its
            retention ladder (reports plus, inside the store's fidelity
            horizon, a full merged-sketch snapshot).  ``None`` disables
            history retention.
    """

    def __init__(
        self,
        config: XSketchConfig,
        n_shards: int,
        seed: int = 0,
        backend: str = "process",
        mp_context: str = "spawn",
        batch_size: int = DEFAULT_BATCH_SIZE,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        snapshots: Optional[Sequence[Dict]] = None,
        observability: bool = False,
        supervised: bool = True,
        auto_checkpoint_interval: int = 1,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        faults: Optional[Sequence[Fault]] = None,
        temporal=None,
        engine: str = "xsketch",
    ):
        validate_engine(engine, config)
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}")
        if backend not in ("process", "inline"):
            raise ConfigurationError(
                f"backend must be 'process' or 'inline', got {backend!r}"
            )
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if snapshots is not None and len(snapshots) != n_shards:
            raise ConfigurationError(
                f"got {len(snapshots)} snapshots for {n_shards} shards"
            )
        if auto_checkpoint_interval < 0:
            raise ConfigurationError(
                f"auto_checkpoint_interval must be >= 0, got {auto_checkpoint_interval}"
            )
        if max_restarts < 0:
            raise ConfigurationError(f"max_restarts must be >= 0, got {max_restarts}")
        if faults:
            if backend != "process":
                raise ConfigurationError(
                    "fault injection requires the process backend"
                )
            for fault in faults:
                if fault.shard >= n_shards:
                    raise ConfigurationError(
                        f"fault targets shard {fault.shard}, runtime has {n_shards}"
                    )
        self.config = config
        self.n_shards = n_shards
        self.seed = seed
        self.engine = engine
        #: the shard engine takes a window as one ``{key: count}`` map
        #: (see "Ingest currency" in the module docstring)
        self.counts_ingest = engine in COUNTS_ENGINES
        self.backend = backend
        self.batch_size = batch_size
        self.reply_timeout = reply_timeout
        self.supervised = supervised
        self.auto_checkpoint_interval = auto_checkpoint_interval
        self.max_restarts = max_restarts
        self.faults = list(faults) if faults else []
        self.partitioner = KeyPartitioner(
            n_shards, seed=seed, hash_family=config.hash_family
        )
        self.window = 0
        self._reports: List[SimplexReport] = []
        self._closed = False
        #: coordinator-side per-shard counters
        self.items_routed = [0] * n_shards
        self.batches_sent = [0] * n_shards
        #: X-Sketch merges performed by merged_sketch() so far
        self.merge_count = 0
        #: supervision counters (honest loss accounting; see health())
        self.shard_restarts = [0] * n_shards
        self.items_lost_estimate = 0
        self.command_retries = 0
        self.reports_discarded = 0
        #: errors swallowed by the shutdown path, surfaced as warnings
        #: and counted by the obs collector instead of silently dropped
        self.close_errors: List[str] = []
        self._recovering = False
        self._buffers: List[List[ItemId]] = [[] for _ in range(n_shards)]
        #: the open window of a counts-ingest engine, first-arrival order
        self._window_counts: Counter = Counter()
        self._memory_bytes: Optional[float] = None
        self.observability = observability
        self.temporal = temporal
        #: live span tracer (assigned by the service layer when tracing
        #: is on; coordinator spans and adopted worker spans share its
        #: sink, so /trace sees one tree per window boundary)
        self.tracer = None
        #: always-on coordinator-phase timings (window granularity only:
        #: dispatch / shard / merge / temporal / checkpoint), folded
        #: into :meth:`metrics_registry` by the sharded collector
        self.coordinator_metrics = MetricsRegistry()
        self.profiler = PhaseProfiler(self.coordinator_metrics)
        #: merged_sketch() memo: (window id, sketch); new data or a
        #: window boundary invalidates it
        self._merged_cache: Optional[Tuple[int, XSketch]] = None
        #: memo effectiveness (runtime_merged_cache_* in /metrics)
        self.merged_cache_hits = 0
        self.merged_cache_misses = 0
        #: last auto-checkpoint per shard (restart restore point)
        self._shard_snapshots: List[Optional[Dict]] = (
            [dict(s) for s in snapshots] if snapshots else [None] * n_shards
        )
        self._snapshot_window = snapshots[0]["window"] if snapshots else 0
        self._items_since_snapshot = [0] * n_shards
        if backend == "inline":
            self._locals = []
            for i in range(n_shards):
                recorder = self._make_recorder() if observability else None
                if snapshots:
                    sketch = restore_xsketch(snapshots[i], seed=seed, recorder=recorder)
                else:
                    sketch = make_engine(
                        config, seed=seed, engine=engine, recorder=recorder
                    )
                self._locals.append(sketch)
            self._inline_busy = [0.0] * n_shards
            if snapshots:
                self.window = self._locals[0].window
        else:
            self._spawn_workers(mp_context, snapshots)
            if snapshots:
                self.window = snapshots[0]["window"]

    @staticmethod
    def _make_recorder():
        from repro.obs.recorder import Recorder
        from repro.obs.registry import MetricsRegistry
        from repro.obs.trace import TraceRing

        return Recorder(MetricsRegistry(), trace=TraceRing())

    # ------------------------------------------------------------------
    # process-backend plumbing

    def _spawn_workers(self, mp_context: str, snapshots) -> None:
        self._ctx = multiprocessing.get_context(mp_context)
        self._command_queues = []
        self._result_queues = []
        self._workers = []
        for shard_id in range(self.n_shards):
            command_queue = self._ctx.Queue()
            result_queue = self._ctx.Queue()
            worker = self._ctx.Process(
                target=shard_worker_main,
                args=(
                    shard_id,
                    self.config,
                    self.seed,
                    command_queue,
                    result_queue,
                    snapshots[shard_id] if snapshots else None,
                    self.observability,
                    self.faults or None,
                    self.engine,
                ),
                daemon=True,
                name=f"xsketch-shard-{shard_id}",
            )
            worker.start()
            self._command_queues.append(command_queue)
            self._result_queues.append(result_queue)
            self._workers.append(worker)

    def _broadcast(self, command: Tuple) -> None:
        for queue in self._command_queues:
            queue.put(command)

    def _collect(
        self,
        kind: str,
        supervised: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> List:
        """Gather one ``kind`` reply from every shard, in shard order.

        Polls each shard's private result queue in short intervals so a
        worker that died without replying (e.g. killed, or crashed
        before the protocol loop) surfaces immediately instead of after
        the full reply deadline.  With supervision on, a dead or
        deadline-expired shard is restarted in place and the command is
        resent; otherwise (or once the restart budget is exhausted) a
        :class:`RuntimeShardError` is raised.
        """
        if supervised is None:
            supervised = self.supervised
        deadline_seconds = self.reply_timeout if timeout is None else timeout
        payloads: List = [None] * self.n_shards
        # A shard has replied iff it is in this set.  (Payloads may
        # legitimately be None — e.g. ``stopped`` — so ``payloads[shard]
        # is None`` must never be used as the replied test.)
        replied = set()
        deadline = time.monotonic() + deadline_seconds
        while len(replied) < self.n_shards:
            for shard in range(self.n_shards):
                if shard in replied:
                    continue
                try:
                    reply = self._result_queues[shard].get(timeout=_POLL_INTERVAL)
                except Empty:
                    # Only a timeout means "no reply yet"; queue plumbing
                    # or unpickling failures must propagate as what they
                    # are rather than masquerade as a silent shard.
                    worker = self._workers[shard]
                    if not worker.is_alive() and self._result_queues[shard].empty():
                        self._recover_shard(
                            shard, kind, f"shard {shard} exited without replying",
                            supervised,
                        )
                        deadline = time.monotonic() + deadline_seconds
                    continue
                reply_kind, reply_shard, payload = reply
                if reply_kind == "error":
                    raise RuntimeShardError(f"shard {reply_shard} failed:\n{payload}")
                if reply_kind != kind or reply_shard != shard:
                    raise RuntimeShardError(
                        f"protocol violation: expected {kind!r} from shard "
                        f"{shard}, got {reply_kind!r} from shard {reply_shard}"
                    )
                payloads[shard] = payload
                replied.add(shard)
            if len(replied) < self.n_shards and time.monotonic() > deadline:
                wedged = [s for s in range(self.n_shards) if s not in replied]
                for shard in wedged:
                    self._recover_shard(
                        shard, kind,
                        f"shard {shard} sent no reply within {deadline_seconds}s "
                        f"while waiting for {kind!r}",
                        supervised,
                    )
                deadline = time.monotonic() + deadline_seconds
        return payloads

    def _recover_shard(
        self, shard: int, resend_kind: str, reason: str, supervised: bool
    ) -> None:
        """Restart ``shard`` in place, or raise when supervision can't."""
        if not supervised or self._recovering:
            raise RuntimeShardError(reason)
        if sum(self.shard_restarts) >= self.max_restarts:
            raise RuntimeShardError(
                f"{reason}; restart budget exhausted "
                f"({self.max_restarts} restarts used, "
                f"items_lost_estimate={self.items_lost_estimate})"
            )
        self._restart_shard(shard, resend_kind, reason)

    def _restart_shard(self, shard: int, resend_kind: str, reason: str) -> None:
        """Respawn one worker from its last checkpoint and resync it.

        Sequence: retire the old process and queues, salvage the ingest
        payloads still sitting in the dead incarnation's command queue,
        spawn a fault-free replacement on fresh queues restoring the
        last auto-checkpoint, fast-forward it to the coordinator's
        window (discarding catch-up reports the merged stream already
        has), replay the salvaged payloads, and resend the command whose
        reply we were waiting for.
        """
        self._recovering = True
        try:
            restarts = self.shard_restarts[shard] + 1
            old = self._workers[shard]
            if old.is_alive():
                old.terminate()
                old.join(timeout=10)
                if old.is_alive():  # pragma: no cover - defensive
                    old.kill()
                    old.join(timeout=10)
            else:
                old.join(timeout=10)
            salvaged = self._drain_salvageable(shard)
            self._retire_queue(self._command_queues[shard])
            self._retire_queue(self._result_queues[shard])
            command_queue = self._ctx.Queue()
            result_queue = self._ctx.Queue()
            worker = self._ctx.Process(
                target=shard_worker_main,
                args=(
                    shard,
                    self.config,
                    self.seed,
                    command_queue,
                    result_queue,
                    self._shard_snapshots[shard],
                    self.observability,
                    None,  # replacements run fault-free
                    self.engine,
                ),
                daemon=True,
                name=f"xsketch-shard-{shard}-r{restarts}",
            )
            worker.start()
            self._command_queues[shard] = command_queue
            self._result_queues[shard] = result_queue
            self._workers[shard] = worker
            self.shard_restarts[shard] = restarts
            # Fast-forward from the snapshot boundary to the current
            # window before replaying anything.
            command_queue.put(("advance", self.window))
            advance = self._collect_from(shard, "advance")
            self.reports_discarded += advance["reports_discarded"]
            salvaged_items = sum(payload_items(payload) for payload in salvaged)
            lost = max(0, self._items_since_snapshot[shard] - salvaged_items)
            self.items_lost_estimate += lost
            self._items_since_snapshot[shard] = salvaged_items
            for payload in salvaged:
                command_queue.put(("ingest", payload))
            if resend_kind in _RESEND_COMMANDS:
                command_queue.put(_RESEND_COMMANDS[resend_kind])
                self.command_retries += 1
            warnings.warn(
                f"ShardedXSketch: restarted shard {shard} ({reason}); "
                f"restored window {self._snapshot_window}, advanced "
                f"{advance['closed']} windows, salvaged {salvaged_items} "
                f"queued items, ~{lost} items lost",
                RuntimeWarning,
                stacklevel=4,
            )
        finally:
            self._recovering = False

    def _drain_salvageable(self, shard: int) -> List:
        """Ingest payloads still queued for a dead worker (best effort).

        The dead incarnation never consumed these, so the replacement
        can legitimately replay them.  Control commands are dropped (the
        collect loop resends the one in flight).

        The cooperative ``get()`` path cannot be used here: a worker
        SIGKILLed while blocked in ``get()`` dies *holding the queue's
        shared reader lock*, so ``get(timeout=...)`` would report
        ``Empty`` with every batch still sitting in the pipe.  The dead
        worker was the only other reader, so the coordinator bypasses
        the lock and reads the raw pipe directly; each ``poll`` wait
        also gives its own feeder thread time to finish flushing
        buffered ``put``\\s.  (``Queue.close()`` must NOT be called
        first — it closes the calling process's *read* end.)  Broad
        exception catch is deliberate: a reader killed mid-recv can
        leave a truncated message, and anything unreadable past it is
        simply counted as lost.
        """
        salvaged: List = []
        reader = getattr(self._command_queues[shard], "_reader", None)
        if reader is None:  # pragma: no cover - defensive
            return salvaged
        while True:
            try:
                if not reader.poll(_POLL_INTERVAL):
                    break
                command = pickle.loads(reader.recv_bytes())
            except Exception:  # pragma: anything unreadable past a truncated message is counted as lost
                break
            if command[0] == "ingest":
                salvaged.append(command[1])
        return salvaged

    @staticmethod
    def _retire_queue(queue) -> None:
        """Abandon a dead incarnation's queue without blocking on it."""
        with contextlib.suppress(OSError, ValueError):
            queue.cancel_join_thread()
            queue.close()

    def _collect_from(self, shard: int, kind: str):
        """One reply from one (freshly restarted) shard; never recovers."""
        deadline = time.monotonic() + self.reply_timeout
        while True:
            try:
                reply = self._result_queues[shard].get(timeout=_POLL_INTERVAL)
            except Empty:
                worker = self._workers[shard]
                if not worker.is_alive() and self._result_queues[shard].empty():
                    raise RuntimeShardError(
                        f"replacement for shard {shard} exited before "
                        f"replying to {kind!r}"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeShardError(
                        f"no {kind!r} reply from restarted shard {shard} "
                        f"within {self.reply_timeout}s"
                    )
                continue
            reply_kind, reply_shard, payload = reply
            if reply_kind == "error":
                raise RuntimeShardError(f"shard {reply_shard} failed:\n{payload}")
            if reply_kind != kind or reply_shard != shard:
                raise RuntimeShardError(
                    f"protocol violation: expected {kind!r} from shard {shard}, "
                    f"got {reply_kind!r} from shard {reply_shard}"
                )
            return payload

    def _auto_checkpoint(self) -> None:
        """Refresh the in-memory restore point at a window boundary."""
        self._broadcast(("checkpoint",))
        snapshots = self._collect("checkpoint")
        self._shard_snapshots = snapshots
        self._snapshot_window = self.window
        self._items_since_snapshot = [0] * self.n_shards

    # ------------------------------------------------------------------
    # stream protocol

    def insert(self, item: ItemId) -> None:
        """Add one arrival (buffered; flushed by size or at flush_window)."""
        if self.counts_ingest:
            self._check_open()
            self._window_counts[item] += 1
            return
        shard = self.partitioner.shard_of(item)
        buffer = self._buffers[shard]
        buffer.append(item)
        if len(buffer) >= self.batch_size:
            self._dispatch(shard, buffer)
            self._buffers[shard] = []

    def ingest_batch(self, items: Sequence[ItemId]) -> None:
        """Add a batch of arrivals to the current window."""
        if self.counts_ingest:
            self._check_open()
            self._window_counts.update(items)
            return
        for shard, part in enumerate(self.partitioner.split(items)):
            if part:
                self._dispatch(shard, part)

    def ingest_counts(self, counts: Mapping[ItemId, int]) -> None:
        """Add a ``{key: count}`` map (first-arrival key order) to the
        current window.  Window-batched engines only: the per-arrival
        engine needs the arrivals themselves."""
        if not self.counts_ingest:
            raise ConfigurationError(
                f"engine {self.engine!r} is order-sensitive within a window "
                "and ingests arrival lists; use ingest_batch()"
            )
        self._check_open()
        self._window_counts.update(counts)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeShardError("ShardedXSketch is closed")

    def _dispatch(self, shard: int, payload) -> None:
        """Send one shard its ``ingest`` payload (item list or count map)."""
        self._check_open()
        n_items = payload_items(payload)
        self.items_routed[shard] += n_items
        self.batches_sent[shard] += 1
        self._merged_cache = None
        if self.temporal is not None:
            if self.counts_ingest:
                self.temporal.observe_counts(payload)
            else:
                self.temporal.observe_items(payload)
        if self.backend == "inline":
            sketch = self._locals[shard]
            start = time.perf_counter()
            if self.counts_ingest:
                sketch.ingest_counts(payload)
            else:
                sketch.ingest_batch(payload)
            self._inline_busy[shard] += time.perf_counter() - start
        else:
            self._items_since_snapshot[shard] += n_items
            self._command_queues[shard].put(("ingest", payload))

    def _route_window(self) -> None:
        """Route the open window's count map, each distinct key once."""
        counts, self._window_counts = self._window_counts, Counter()
        if not counts:
            return
        for shard, part in enumerate(self.partitioner.split_counts(counts)):
            if part:
                self._dispatch(shard, part)

    def _flush_buffers(self) -> None:
        for shard, buffer in enumerate(self._buffers):
            if buffer:
                self._dispatch(shard, buffer)
                self._buffers[shard] = []

    def flush_window(self, span_ctx=None) -> List[SimplexReport]:
        """Close the current window on every shard; merged reports back.

        ``span_ctx`` is the parent :class:`~repro.obs.spans.SpanContext`
        (the service's ``window.flush`` span) — with a live ``tracer``
        attached, the coordinator wraps the close in its own span,
        ships that context to every worker inside the ``end_window``
        command, and adopts the per-shard spans the workers return, so
        the whole fan-out lands in one tree.  Without either, the close
        runs exactly as before (the NULL_TRACER gate).
        """
        self._flush_buffers()
        tracer = self.tracer
        if tracer is None or not tracer.enabled or span_ctx is None:
            tracer = None
        if tracer is not None:
            with tracer.span(
                "coordinator.end_window", parent=span_ctx,
                window=self.window, shards=self.n_shards,
            ) as coordinator_span:
                merged = self._close_shards(tracer, coordinator_span.context)
        else:
            merged = self._close_shards(None, None)
        with self.profiler.phase("merge"):
            merged.sort(key=report_order)
        self._reports.extend(merged)
        closed_window = self.window
        self.window += 1
        self._merged_cache = None
        if (
            self.backend == "process"
            and self.supervised
            and self.auto_checkpoint_interval
            and self.window % self.auto_checkpoint_interval == 0
        ):
            with self.profiler.phase("checkpoint"):
                self._auto_checkpoint()
        if self.temporal is not None:
            # The snapshot thunk rides the merged_sketch() memo (and the
            # auto-checkpoint just taken, when there was one), so deep
            # time-travel fidelity costs at most one compaction per
            # boundary — and nothing once the store stops asking.
            with self.profiler.phase("temporal"):
                self.temporal.on_window(
                    closed_window,
                    merged,
                    snapshot_fn=lambda: snapshot_xsketch(self.merged_sketch()),
                )
        return merged

    def _close_shards(self, tracer, ctx) -> List[SimplexReport]:
        """End the window on every shard; unsorted union of reports.

        With a tracer, each shard's close is timed where it runs: the
        inline backend emits the span directly, the process backend
        sends ``ctx`` on the wire and adopts the span dict each worker
        returns alongside its reports.  A freshly restarted shard
        answers the bare resent command with bare reports (no span) —
        its close simply goes untimed for that window.
        """
        if self.backend == "inline":
            merged: List[SimplexReport] = []
            with self.profiler.phase("shard"):
                self._route_window()
                for shard, sketch in enumerate(self._locals):
                    start = time.perf_counter()
                    reports = sketch.end_window()
                    elapsed = time.perf_counter() - start
                    self._inline_busy[shard] += elapsed
                    if tracer is not None:
                        tracer.emit(
                            "shard.end_window",
                            trace_id=ctx.trace_id,
                            span_id=new_span_id(),
                            parent_id=ctx.span_id,
                            ts=tracer.timestamp() - elapsed,
                            dur=elapsed,
                            shard=shard,
                        )
                    merged.extend(reports)
            return merged
        command = (
            ("end_window", ctx.to_wire()) if tracer is not None
            else ("end_window",)
        )
        with self.profiler.phase("dispatch"):
            self._route_window()
            self._broadcast(command)
        with self.profiler.phase("shard"):
            payloads = self._collect("end_window")
        merged = []
        for payload in payloads:
            if isinstance(payload, dict):
                if tracer is not None and payload.get("span") is not None:
                    tracer.adopt([payload["span"]])
                merged.extend(payload["reports"])
            else:
                merged.extend(payload)
        return merged

    #: alias so the coordinator matches the engine protocol
    end_window = flush_window

    def run_window(self, items: Sequence[ItemId]) -> List[SimplexReport]:
        """Convenience: ingest a whole window of arrivals, then close it."""
        self.ingest_batch(items)
        return self.flush_window()

    def report(self) -> List[SimplexReport]:
        """All reports emitted so far, in canonical order."""
        return list(self._reports)

    @property
    def reports(self) -> List[SimplexReport]:
        """Alias of :meth:`report` (engine protocol)."""
        return self.report()

    # ------------------------------------------------------------------
    # observability

    def queue_depths(self) -> List[Optional[int]]:
        """Approximate command-queue backlog per shard (None if unknown)."""
        if self.backend == "inline":
            return [0] * self.n_shards
        depths: List[Optional[int]] = []
        for queue in self._command_queues:
            try:
                depths.append(queue.qsize())
            except NotImplementedError:  # pragma: no cover - macOS
                depths.append(None)
        return depths

    def health(self) -> Dict:
        """Non-blocking liveness view (no worker IPC; safe cross-thread).

        ``status`` is ``"degraded"`` while any worker process is dead
        and not yet restarted, or while a restart is in progress;
        ``"ok"`` otherwise.  The service layer serves this from
        ``/healthz`` so a recovering runtime is visible without tearing
        anything down.
        """
        dead: List[int] = []
        pids: List[Optional[int]] = []
        if self.backend == "process" and not self._closed:
            for shard, worker in enumerate(self._workers):
                pids.append(worker.pid)
                if not worker.is_alive():
                    dead.append(shard)
        recovering = self._recovering
        return {
            "status": "degraded" if (dead or recovering) else "ok",
            "backend": self.backend,
            "n_shards": self.n_shards,
            "window": self.window,
            "supervised": self.supervised,
            "recovering": recovering,
            "dead_shards": dead,
            "worker_pids": pids,
            "restarts": list(self.shard_restarts),
            "restarts_total": sum(self.shard_restarts),
            "items_lost_estimate": self.items_lost_estimate,
            "command_retries": self.command_retries,
        }

    def stats(self) -> ShardedStats:
        """Coordinator and worker counters for every shard."""
        if self.backend == "inline":
            worker_reports = [
                WorkerReport(
                    shard_id=shard,
                    items_ingested=self.items_routed[shard],
                    batches=self.batches_sent[shard],
                    windows=sketch.window,
                    busy_seconds=self._inline_busy[shard],
                    stats=sketch.stats,
                )
                for shard, sketch in enumerate(self._locals)
            ]
        else:
            self._broadcast(("stats",))
            worker_reports = self._collect("stats")
        depths = self.queue_depths()
        shards = tuple(
            ShardStats(
                shard_id=shard,
                items_routed=self.items_routed[shard],
                batches_sent=self.batches_sent[shard],
                queue_depth=depths[shard],
                worker=worker_reports[shard],
            )
            for shard in range(self.n_shards)
        )
        return ShardedStats(
            n_shards=self.n_shards,
            window=self.window,
            items_routed=sum(self.items_routed),
            reports=len(self._reports),
            merge_count=self.merge_count,
            shards=shards,
        )

    def metrics_registry(self, registry=None):
        """Aggregated metrics of the whole runtime, as one registry.

        Walks the same reduction path as report merging: each shard
        contributes its sketch's canonical registry (counters synced
        from the plain-int decision counters, plus any live-recorder
        histograms), serialized as a snapshot on the process backend and
        collected directly on the inline one; the coordinator folds the
        per-shard views together (counters/gauges add, histograms add
        bucket-wise) and stamps its own routing and supervision
        counters on top.
        """
        from repro.obs.collect import collect_sharded
        from repro.obs.registry import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        if self.backend == "inline":
            for sketch in self._locals:
                sketch.metrics_registry(registry)
        else:
            self._broadcast(("metrics",))
            for snapshot in self._collect("metrics"):
                registry.merge_snapshot(snapshot)
        return collect_sharded(self, registry)

    def trace_events(self) -> List[Dict]:
        """All shards' trace-ring events, ordered by timestamp.

        Empty unless the runtime was built with ``observability=True``.
        Each event is a JSON-safe dict carrying at least ``ts``,
        ``kind`` and ``shard``.  A restarted shard's ring restarts with
        it — flight-recorder contents do not survive a crash.
        """
        events: List[Dict] = []
        if self.backend == "inline":
            per_shard = [
                sketch.recorder.trace.events()
                if getattr(sketch.recorder, "trace", None) is not None
                else []
                for sketch in self._locals
            ]
        else:
            self._broadcast(("trace",))
            per_shard = self._collect("trace")
        for shard, shard_events in enumerate(per_shard):
            for event in shard_events:
                stamped = dict(event)
                stamped["shard"] = shard
                events.append(stamped)
        events.sort(key=lambda e: e.get("ts", 0.0))
        return events

    @property
    def memory_bytes(self) -> float:
        """Accounted memory across all shards (n_shards x one sketch)."""
        if self._memory_bytes is None:
            if self.backend == "inline":
                self._memory_bytes = sum(s.memory_bytes for s in self._locals)
            else:
                probe = make_engine(self.config, seed=self.seed, engine=self.engine)
                self._memory_bytes = self.n_shards * probe.memory_bytes
        return self._memory_bytes

    # ------------------------------------------------------------------
    # checkpoint / compaction

    def _require_boundary(self) -> None:
        """Refuse while the open window holds arrivals not yet closed."""
        if self._window_counts or any(self._buffers):
            raise RuntimeShardError(
                "snapshot only at a window boundary (open-window arrivals "
                "not yet flushed); call flush_window() first"
            )

    def _collect_snapshots(self) -> List[Dict]:
        """Per-shard snapshots at the current window boundary."""
        self._require_boundary()
        if self.backend == "inline":
            return [snapshot_xsketch(sketch) for sketch in self._locals]
        self._broadcast(("checkpoint",))
        return self._collect("checkpoint")

    def checkpoint(self, directory) -> None:
        """Write a shard-aware checkpoint directory (manifest + shards)."""
        from repro.runtime.checkpoint import save_sharded_checkpoint

        save_sharded_checkpoint(self, directory)

    @classmethod
    def restore(cls, directory, backend: str = "process", **kwargs) -> "ShardedXSketch":
        """Rebuild a sharded runtime from :meth:`checkpoint` output."""
        from repro.runtime.checkpoint import load_sharded_checkpoint

        return load_sharded_checkpoint(directory, backend=backend, **kwargs)

    def merged_sketch(self) -> XSketch:
        """Compact all shards into one single-process sketch.

        The result's class matches the runtime's ``engine`` (an
        :class:`XSketch`, :class:`~repro.core.batched.BatchedXSketch`
        or :class:`~repro.core.vectorized.VectorizedXSketch` -- each
        implements the same ``merge()`` protocol).

        The documented fallback merge path: per-shard states are
        snapshotted at the current window boundary, rebuilt locally and
        folded together (Stage 1 counter-wise, Stage 2 by weight
        election).  The running shards are not disturbed.  Note the
        merged sketch holds one ``config`` worth of memory, so Stage-2
        buckets may overflow and elect by weight; with ample memory the
        merged report stream matches the sharded one.

        The result is memoized per window: repeated calls between
        window boundaries return the same compacted sketch without
        touching the workers.  Any new dispatched data or a
        ``flush_window`` invalidates the memo, and when the supervision
        auto-checkpoint already holds fresh per-shard snapshots at this
        boundary they are reused instead of a second snapshot round-trip.
        """
        self._require_boundary()
        if self._merged_cache is not None and self._merged_cache[0] == self.window:
            self.merged_cache_hits += 1
            merged = self._merged_cache[1]
            merged._reports = sorted(self._reports, key=report_order)
            return merged
        self.merged_cache_misses += 1
        snapshots = self._cached_shard_snapshots()
        if snapshots is None:
            snapshots = self._collect_snapshots()
        merged = restore_xsketch(snapshots[0], seed=self.seed)
        for snapshot in snapshots[1:]:
            merged.merge(restore_xsketch(snapshot, seed=self.seed))
            self.merge_count += 1
        merged._reports = sorted(self._reports, key=report_order)
        self._merged_cache = (self.window, merged)
        return merged

    def slim_summary(self) -> Dict:
        """The slim read-side summary of the merged sketch.

        See :func:`repro.runtime.slim.slim_summary`; rides the
        ``merged_sketch()`` memo, so between boundaries repeated
        summaries cost one dict build, not a shard round-trip.
        """
        from repro.runtime.slim import slim_summary

        return slim_summary(self.merged_sketch())

    def _cached_shard_snapshots(self) -> Optional[List[Dict]]:
        """The auto-checkpoint's snapshots, when still at this boundary."""
        if (
            self._snapshot_window == self.window
            and all(s is not None for s in self._shard_snapshots)
            and not any(self._items_since_snapshot)
        ):
            return self._shard_snapshots
        return None

    # ------------------------------------------------------------------
    # lifecycle

    def _note_close_error(self, message: str) -> None:
        """Record an error swallowed on the shutdown path, visibly."""
        self.close_errors.append(message)
        warnings.warn(
            f"ShardedXSketch.close: {message}", RuntimeWarning, stacklevel=3
        )

    def close(self) -> None:
        """Stop all workers; idempotent.

        The shutdown path never raises, but neither does it hide
        trouble: every swallowed error is appended to ``close_errors``,
        emitted as a :class:`RuntimeWarning`, and counted by the obs
        collector (``runtime_close_errors_total``), so leaked workers
        or broken queues stay visible.
        """
        # getattr: __init__ may have raised before _closed was set, and
        # __del__ still runs on the half-constructed object.
        if getattr(self, "_closed", True):
            return
        self._closed = True
        if self.backend == "inline":
            return
        try:
            self._broadcast(("stop",))
            # Never supervise the shutdown handshake (restarting a
            # worker just to stop it again would be absurd), and don't
            # wait the full reply deadline for a wedged one.
            self._collect(
                "stopped", supervised=False, timeout=min(self.reply_timeout, 10.0)
            )
        except RuntimeShardError as exc:
            self._note_close_error(f"shutdown handshake failed: {exc}")
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - defensive
                self._note_close_error(
                    f"worker {worker.name} did not exit; terminating it"
                )
                worker.terminate()
                worker.join(timeout=10)
        for queue in (*self._command_queues, *self._result_queues):
            try:
                queue.close()
            except Exception as exc:  # pragma: no cover - defensive
                self._note_close_error(
                    f"queue close failed: {type(exc).__name__}: {exc}"
                )

    def __enter__(self) -> "ShardedXSketch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception as exc:
            # pragma: the interpreter may be tearing down; even the
            # warning is best-effort here.
            with contextlib.suppress(Exception):  # pragma: shutdown teardown
                warnings.warn(
                    f"ShardedXSketch.__del__: close failed: "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                )
