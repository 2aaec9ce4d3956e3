"""The load-generating side: ingest loops, the DELTA subscriber, queries.

Everything here talks to the service through its public surfaces only:
the framed TCP ingest protocol, the publisher stream (through
:mod:`repro.replica.subscriber`) and HTTP.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.replica.subscriber import frames, open_subscription
from repro.service.protocol import (
    MAGIC,
    batch_message,
    decode_payload,
    encode_frame,
    encode_payload,
    iter_window_batches,
    read_frame,
)

from xbench.proctree import cpu_delta, host_cpu_ticks
from xbench.stats import percentile

#: wire batch size of every workload (the loadgen default)
BATCH_ITEMS = 512

#: inbound frame limit of the subscriber (the service default)
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: lateness beyond which an open-loop run is invalid: one batch interval
#: at 25k items/s is 20 ms, so p99 above this means the generator, not
#: the service, set the pace
LATENESS_LIMIT_S = 0.050

#: seconds of service progress the closed loop's drain estimate spans
RATE_SPAN_S = 1.0


@dataclass
class IngestResult:
    """What the producer saw on its connection."""

    windows: List[List[str]]
    items_sent: int = 0
    frame_bytes: int = 0
    t_first: float = 0.0
    t_ack: float = 0.0
    ack: dict = field(default_factory=dict)
    #: open loop only: per window, when its last batch was due
    last_due: List[float] = field(default_factory=list)
    lateness: Optional["Lateness"] = None


class Lateness:
    """How far behind its schedule an open-loop generator sent."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, due: float, sent: float) -> None:
        self.samples.append(max(0.0, sent - due))

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"n": 0, "p99_ms": 0.0, "max_ms": 0.0}
        return {
            "n": len(self.samples),
            "p99_ms": percentile(self.samples, 99) * 1e3,
            "max_ms": max(self.samples) * 1e3,
        }

    def behind(self, limit: float = LATENESS_LIMIT_S) -> bool:
        """True when the generator, not the service, set the pace."""
        return bool(self.samples) and percentile(self.samples, 99) > limit


def open_loop_schedule(window_sizes: Sequence[int], rate: float, t0: float,
                       batch: int = BATCH_ITEMS) -> List[Tuple[float, int, int]]:
    """``(due, window, n_items)`` per wire batch at ``rate`` items/s.

    A batch is due when every item before it has been offered:
    ``t0 + items_before / rate``.
    """
    plan = []
    offered = 0
    for window, size in enumerate(window_sizes):
        for start in range(0, size, batch):
            n_items = min(batch, size - start)
            plan.append((t0 + offered / rate, window, n_items))
            offered += n_items
    return plan


async def _ack(reader, writer) -> dict:
    writer.write_eof()
    payload = await read_frame(reader, 1 << 20)
    if payload is None:
        raise ConnectionError("connection closed before acknowledgement")
    return decode_payload(payload)


class Progress:
    """The service's own progress, polled beside the ingest loop.

    Every ``interval`` seconds: ``/stats`` ``items_total`` (items the
    window manager has taken in), a CPU sample of the service tree and
    the host's steal and total CPU ticks.  :meth:`slices` cuts the polls
    into back-to-back slices of at least one second, each with the share
    of CPU time the hypervisor gave to other guests while it lasted.
    """

    def __init__(self, host: str, http_port: int,
                 cpu_sample: Callable[[], Dict[int, float]],
                 interval: float = 0.25):
        self.host = host
        self.http_port = http_port
        self.cpu_sample = cpu_sample
        self.interval = interval
        #: (perf_counter, items_total, cpu sample, (steal, total) ticks) per poll
        self.records: List[Tuple[float, int, Dict[int, float], Tuple[int, int]]] = []

    async def run(self, stop: asyncio.Event) -> None:
        while not stop.is_set():
            status, body = await http_request(self.host, self.http_port, "/stats")
            if status == 200:
                items = json.loads(body)["items_total"]
                self.records.append((time.perf_counter(), items, self.cpu_sample(),
                                     host_cpu_ticks()))
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), self.interval)

    def slices(self, span: float = 1.0) -> List[Tuple[float, int, float, float]]:
        """``(seconds, items, cpu seconds, steal share)`` per slice.

        Each slice spans at least ``span`` seconds of polls.
        """
        out = []
        start = 0
        for index in range(1, len(self.records)):
            t0, items0, cpu0, (steal0, total0) = self.records[start]
            t1, items1, cpu1, (steal1, total1) = self.records[index]
            if t1 - t0 >= span:
                steal = (steal1 - steal0) / max(1, total1 - total0)
                out.append((t1 - t0, items1 - items0, cpu_delta(cpu0, cpu1), steal))
                start = index
        return out


def drain_estimate(progress: Sequence[Tuple], sent: int,
                   span: float = RATE_SPAN_S) -> float:
    """Seconds the service needs to take in what was sent but not yet taken.

    ``progress`` holds ``(perf_counter, items taken in, ...)`` polls.
    The rate is the progress over the last ``span`` seconds of polls; 0
    until the polls cover that long (start-up is not steady).
    """
    if not progress:
        return 0.0
    t_last, done_last = progress[-1][:2]
    for record in reversed(progress):
        t_then, done_then = record[:2]
        if t_last - t_then >= span:
            if done_last <= done_then:
                return 0.0
            rate = (done_last - done_then) / (t_last - t_then)
            return (sent - done_last) / rate
    return 0.0


async def closed_loop(host: str, port: int, windows: Iterator[List[str]],
                      seconds: float, progress: Progress) -> IngestResult:
    """Send whole windows as fast as pushback allows, for about ``seconds``.

    One framed connection, sequenced batches; the timed interval runs
    from the first frame written to the acknowledgement, which the
    service sends once every item has gone through the engine.  The
    service buffers many frames ahead of the engine, so the producer
    stops sending once the backlog at the service's current rate (from
    ``progress``, which the caller polls) would run past ``seconds``.
    """
    result = IngestResult(windows=[])
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(MAGIC)
        seq = 0
        result.t_first = time.perf_counter()
        for window in windows:
            for items in iter_window_batches(window, BATCH_ITEMS):
                frame = encode_frame(batch_message(items, seq))
                seq += 1
                writer.write(frame)
                await writer.drain()
                result.frame_bytes += len(frame)
                result.items_sent += len(items)
            result.windows.append(window)
            elapsed = time.perf_counter() - result.t_first
            if elapsed + drain_estimate(progress.records, result.items_sent) >= seconds:
                break
        result.ack = await _ack(reader, writer)
        result.t_ack = time.perf_counter()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    return result


async def open_loop(host: str, port: int, windows: List[List[str]],
                    rate: float) -> IngestResult:
    """Offer ``windows`` at a fixed ``rate`` items/s, whatever the service does."""
    result = IngestResult(windows=list(windows), lateness=Lateness())
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(MAGIC)
        t0 = time.perf_counter() + 0.01
        plan = open_loop_schedule([len(w) for w in windows], rate, t0)
        batches = (
            items for window in windows
            for items in iter_window_batches(window, BATCH_ITEMS)
        )
        result.last_due = [0.0] * len(windows)
        result.t_first = t0
        for seq, ((due, window, _), items) in enumerate(zip(plan, batches)):
            frame = encode_frame(batch_message(items, seq))
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.record(due, time.perf_counter())
            writer.write(frame)
            await writer.drain()
            result.frame_bytes += len(frame)
            result.items_sent += len(items)
            result.last_due[window] = due
        result.ack = await _ack(reader, writer)
        result.t_ack = time.perf_counter()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    return result


class Subscriber:
    """The benchmark's own replica-stream subscriber (DELTA arrival times)."""

    def __init__(self) -> None:
        self.snapshot_seq: Optional[int] = None
        #: (seq, window, arrival perf_counter, frame bytes) per DELTA
        self.deltas: List[Tuple[int, int, float, int]] = []
        self.window = 0
        self._reader = None
        self._writer = None
        self._changed = asyncio.Event()

    async def connect(self, host: str, port: int) -> None:
        reader, self._writer = await open_subscription(
            host, port, None, MAX_FRAME_BYTES
        )
        self._reader = reader

    async def run(self) -> None:
        async for frame in frames(self._reader, MAX_FRAME_BYTES):
            arrival = time.perf_counter()
            if frame["type"] == "snapshot":
                self.snapshot_seq = frame["seq"]
            elif frame["type"] == "delta":
                size = len(encode_payload(frame)) + 4
                self.deltas.append((frame["seq"], frame["window"], arrival, size))
            self.window = max(self.window, frame["window"])
            self._changed.set()

    async def wait_window(self, window: int, timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        while self.window < window:
            self._changed.clear()
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"no DELTA for window {window}")
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._changed.wait(), remaining)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()

    def gaps(self) -> int:
        """Missing or out-of-order DELTA sequence numbers."""
        expected = (self.snapshot_seq or 0) + 1
        bad = 0
        for seq, _, _, _ in self.deltas:
            if seq != expected:
                bad += 1
            expected = seq + 1
        return bad

    def report_latencies(self, last_due: Sequence[float]) -> List[float]:
        """Per window: DELTA arrival minus when its last batch was due."""
        arrivals = {window: arrival for _, window, arrival, _ in self.deltas}
        return [
            arrivals[w + 1] - due for w, due in enumerate(last_due)
            if w + 1 in arrivals
        ]


async def http_request(host: str, port: int, path: str) -> Tuple[int, bytes]:
    """One GET over a fresh connection (the service closes after each)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
            .encode("ascii")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, body


class QueryClient:
    """A paced mix of ``/reports``, ``/reports?range=a:b`` and ``/history``.

    Query ``i`` goes to tier ``i % len(tiers)`` (primary and replica
    alternate), cycling through the three routes.  The range covers the
    last eight windows the subscriber has seen closed.
    """

    def __init__(self, tiers: Dict[str, Tuple[str, int]], rate: float,
                 subscriber: Subscriber):
        self.tiers = list(tiers.items())
        self.rate = rate
        self.subscriber = subscriber
        self.latencies: Dict[str, List[float]] = {name: [] for name in tiers}
        self.attempted = 0
        self.failed = 0

    def path(self, index: int) -> str:
        route = (index // len(self.tiers)) % 3
        if route == 0:
            return "/reports"
        if route == 1:
            end = max(0, self.subscriber.window - 1)
            return f"/reports?range={max(0, end - 7)}:{end}"
        return "/history"

    async def run(self, stop: asyncio.Event) -> None:
        t0 = time.perf_counter()
        index = 0
        while not stop.is_set():
            delay = t0 + index / self.rate - time.perf_counter()
            if delay > 0:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(stop.wait(), delay)
                if stop.is_set():
                    break
            tier, (host, port) = self.tiers[index % len(self.tiers)]
            path = self.path(index)
            index += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                status, _ = await http_request(host, port, path)
            except OSError:
                status = 0
            if status == 200:
                self.latencies[tier].append(time.perf_counter() - start)
            else:
                self.failed += 1
