"""The X-Sketch service benchmark: one workload, end to end or layer by layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

A run starts the real ``repro serve`` (``--shards 2 --engine vectorized``,
every other flag at its shipped default) -- plus one ``repro replica`` on
``timetravel-live`` -- drives it over TCP ingest, the publisher stream
and HTTP from this one process, checks the outputs against an in-process
reference, and prints every metric with its unit.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from xbench.service import BenchError  # found through the path set above

#: set-ups per untraced run; setup_s is their median
SETUPS = 3

#: in-memory windows per ingest trace; a faster service cycles through them
INGEST_TRACE_WINDOWS = 240

#: why each workload exists is recorded in BENCHMARK.json and the README
WORKLOADS: Dict[str, dict] = {
    "ingest-zipf": {"dataset": "synthetic", "window": 8000, "loop": "closed"},
    "ingest-iptrace": {"dataset": "ip_trace", "window": 8000, "loop": "closed"},
    "timetravel-live": {
        "dataset": "ip_trace", "window": 4000, "loop": "open", "rate": 25000.0,
        "query_rate": 30.0,
    },
}

END_TO_END = {
    "setup_s": "s",
    "ingest_mops": "Mops",
    "cpu_s_per_mitem": "CPU-s/Mitem",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def serve_args(spec: dict) -> List[str]:
    args = ["--shards", "2", "--engine", "vectorized",
            "--window-size", str(spec["window"])]
    if spec["loop"] == "open":
        args += ["--temporal", "--publish", "0"]
    return args


def build_windows(spec: dict, seed: int, seconds: float) -> List[List[str]]:
    from repro.streams.datasets import make_dataset

    if spec["loop"] == "open":
        n_windows = max(1, round(seconds * spec["rate"] / spec["window"]))
    else:
        n_windows = INGEST_TRACE_WINDOWS
    trace = make_dataset(spec["dataset"], n_windows=n_windows,
                         window_size=spec["window"], seed=seed)
    return trace.window_items


def make_reference():
    """The in-process reference: the shipped serve defaults, inline shards."""
    from repro.cli import build_parser
    from repro.experiments.harness import make_algorithm
    from repro.fitting.simplex import SimplexTask

    d = build_parser().parse_args(["serve"])
    return make_algorithm(
        d.algorithm, SimplexTask(k=d.k, p=d.p, T=d.T, L=d.L), d.memory_kb,
        seed=d.seed, shards=2, shard_backend="inline", engine="vectorized",
    )


def reference_reports(windows) -> List[dict]:
    from repro.service.protocol import iter_window_batches
    from repro.service.window import report_to_dict

    engine = make_reference()
    try:
        for window in windows:
            for batch in iter_window_batches(window, 512):
                engine.ingest_batch(batch)
            engine.flush_window()
        return [report_to_dict(r) for r in engine.reports]
    finally:
        engine.close()


class Pass:
    """One set-up-drive-check cycle against freshly spawned processes."""

    def __init__(self, workload: str, windows, seconds: float, traced: bool,
                 run_dir: Path):
        self.spec = WORKLOADS[workload]
        self.windows = windows
        self.seconds = seconds
        self.traced = traced
        self.run_dir = run_dir
        self.primary = None
        self.replica = None
        self.setup_samples: List[float] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.spans_primary: Optional[Path] = None
        self.spans_replica: Optional[Path] = None

    # -- processes ---------------------------------------------------------

    def _spawn(self) -> None:
        from xbench.service import start_primary, start_replica

        tag = time.monotonic_ns()
        traced = self.traced
        self.spans_primary = self.run_dir / f"primary-{tag}.json" if traced else None
        self.spans_replica = self.run_dir / f"replica-{tag}.json" if traced else None
        self.primary = start_primary(ROOT, self.run_dir, serve_args(self.spec),
                                     self.spans_primary)
        if self.spec["loop"] == "open":
            publish = ("127.0.0.1", int(self.primary.match.group("publish")))
            self.replica = start_replica(ROOT, self.run_dir, publish,
                                         self.spans_replica)

    def stop(self) -> None:
        for service in (self.replica, self.primary):
            if service is not None:
                service.stop()
        self.primary = self.replica = None

    def kill(self) -> None:
        for service in (self.replica, self.primary):
            if service is not None:
                service.kill()
        self.primary = self.replica = None

    def setup(self) -> None:
        rounds = 1 if self.traced else SETUPS
        for index in range(rounds):
            start = time.perf_counter()
            self._spawn()
            self.setup_samples.append(time.perf_counter() - start)
            if index < rounds - 1:
                self.stop()

    # -- the timed interval ------------------------------------------------

    def drive(self) -> None:
        from xbench.proctree import TreeSampler, host_cpu_ticks

        roots = [self.primary.pid] + ([self.replica.pid] if self.replica else [])
        self.sampler = TreeSampler(roots)
        steal_before, total_before = host_cpu_ticks()
        self.result = asyncio.run(self._drive())
        steal_after, total_after = host_cpu_ticks()
        self.steal_share = (steal_after - steal_before) / max(1, total_after - total_before)
        self.peak_rss = self.sampler.peak_rss_mb()

    async def _drive(self):
        from xbench import drive

        host = "127.0.0.1"
        ingest_port = int(self.primary.match.group("ingest"))
        self.progress = drive.Progress(
            host, int(self.primary.match.group("http")), self.sampler.sample)
        stop = asyncio.Event()
        poller = asyncio.create_task(self.progress.run(stop))
        try:
            if self.spec["loop"] == "closed":
                return await drive.closed_loop(
                    host, ingest_port, itertools.cycle(self.windows),
                    self.seconds, self.progress)
            return await self._open_loop(host, ingest_port, stop)
        finally:
            stop.set()
            await poller

    async def _open_loop(self, host: str, ingest_port: int, stop: asyncio.Event):
        from xbench import drive

        subscriber = drive.Subscriber()
        await subscriber.connect(host, int(self.primary.match.group("publish")))
        sub_task = asyncio.create_task(subscriber.run())
        tiers = {
            "primary": (host, int(self.primary.match.group("http"))),
            "replica": (host, int(self.replica.match.group("http"))),
        }
        queries = drive.QueryClient(tiers, self.spec["query_rate"], subscriber)
        try:
            query_task = asyncio.create_task(queries.run(stop))
            result = await drive.open_loop(host, ingest_port, self.windows,
                                           self.spec["rate"])
            stop.set()
            await query_task
            await subscriber.wait_window(len(self.windows), timeout=30.0)
        finally:
            sub_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                await sub_task
            subscriber.close()
        self.subscriber = subscriber
        self.queries = queries
        return result

    # -- after the timed interval -------------------------------------------

    def collect(self) -> None:
        """Final state from the live processes (then they are stopped)."""
        from xbench.service import http_get

        port = int(self.primary.match.group("http"))
        status, body = http_get("127.0.0.1", port, "/stats?engine=1")
        self.engine_stats = json.loads(body)["engine"]
        status, body = http_get("127.0.0.1", port, "/reports")
        self.final_reports = json.loads(body)["reports"] if status == 200 else None
        if self.traced:
            self.metrics_text = http_get("127.0.0.1", port, "/metrics")[1].decode()
        if self.replica is not None:
            self._compare_tiers(port, int(self.replica.match.group("http")))

    def _compare_tiers(self, primary_port: int, replica_port: int) -> None:
        """Replica and primary bodies must be byte-identical at equal seq."""
        from xbench.service import http_get

        deadline = time.monotonic() + 30.0
        while True:
            primary = json.loads(http_get("127.0.0.1", primary_port, "/healthz")[1])
            replica = json.loads(http_get("127.0.0.1", replica_port, "/healthz")[1])
            seq = primary["publisher"]["last_published_seq"]
            if replica.get("snapshot_seq") == seq:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"replica stuck at {replica.get('snapshot_seq')}, "
                                 f"primary published {seq}")
            time.sleep(0.02)
        last = len(self.windows) - 1
        paths = ["/reports", f"/reports?range=0:{last}",
                 f"/reports?range={max(0, last - 7)}:{last}"]
        for path in paths:
            a = http_get("127.0.0.1", primary_port, path)
            b = http_get("127.0.0.1", replica_port, path)
            self.attempted += 1
            if a != b or a[0] != 200:
                self.failed += 1
                self.problems.append(f"replica {path} differs from primary at seq {seq}")
        self.replica_stats = json.loads(http_get("127.0.0.1", replica_port, "/stats")[1])

    def check(self) -> None:
        """The correctness gate; every violation is a failed operation."""
        result = self.result
        sent_windows = result.windows
        acked = result.ack.get("received", 0)
        dropped = result.ack.get("dropped", 0)
        self.attempted += result.items_sent
        self.failed += (result.items_sent - acked) + dropped
        if "error" in result.ack:
            self.problems.append(f"ingest error: {result.ack['error']}")
        if acked != result.items_sent or dropped:
            self.problems.append(
                f"acked {acked} and dropped {dropped} of {result.items_sent} items")
        expected = reference_reports(sent_windows)
        self.attempted += 1
        if self.final_reports != expected:
            self.failed += 1
            self.problems.append(
                f"/reports ({len(self.final_reports or [])} reports) differs from "
                f"the inline reference ({len(expected)})")
        if self.spec["loop"] == "open":
            sub = self.subscriber
            gaps = sub.gaps()
            missing = max(0, len(sent_windows) - len(sub.deltas))
            self.attempted += len(sent_windows) + self.queries.attempted
            self.failed += gaps + missing + self.queries.failed
            if gaps or missing:
                self.problems.append(f"DELTA stream: {gaps} gaps, {missing} missing")
            if self.queries.failed:
                self.problems.append(f"{self.queries.failed} queries failed")
            if result.lateness.behind():
                self.problems.append(
                    f"generator fell behind: {result.lateness.summary()}")

    # -- metrics -------------------------------------------------------------

    def mops(self) -> float:
        elapsed = self.result.t_ack - self.result.t_first
        return self.result.ack.get("received", 0) / elapsed / 1e6

    def slices(self):
        slices = self.progress.slices()
        if len(slices) < 3:
            raise BenchError(f"only {len(slices)} one-second slices; run longer")
        return slices

    def ingest_mops(self) -> float:
        """The service's intake rate over one-second slices.

        Closed loop: its capacity, fitted at no host steal.  Open loop:
        the delivered rate, which the schedule sets and steal moves only
        while a backlog is made up, so the slices' median.
        """
        from xbench.stats import zero_steal_rate

        if self.spec["loop"] == "closed":
            return zero_steal_rate(self.slices()) / 1e6
        return self.measured_mops()

    def measured_mops(self) -> float:
        """Median over one-second slices of the intake rate, steal and all."""
        return statistics.median(n / dt for dt, n, *_ in self.slices()) / 1e6

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_samples),
            "ingest_mops": self.ingest_mops(),
            "cpu_s_per_mitem": statistics.median(
                cpu / n * 1e6 for _, n, cpu, _ in self.slices() if n),
            "peak_rss_mb": self.peak_rss,
        }

    def live_latencies(self) -> Dict[str, tuple]:
        """The open-loop latency figures: ``name -> (value or None, unit, n)``."""
        from xbench.stats import supports, percentile

        out = {}
        if self.spec["loop"] != "open":
            return out
        report = self.subscriber.report_latencies(self.result.last_due)
        for q, name in ((50, "report_latency_p50_ms"), (90, "report_latency_p90_ms")):
            value = percentile(report, q) * 1e3 if supports(len(report), q) else None
            out[name] = (value, "ms", len(report))
        for tier in ("primary", "replica"):
            samples = self.queries.latencies[tier]
            for q in (50, 95):
                value = (percentile(samples, q) * 1e3
                         if supports(len(samples), q) else None)
                out[f"{tier}_query_p{q}_ms"] = (value, "ms", len(samples))
        lateness = self.result.lateness.summary()
        out["generator_lateness_p99_ms"] = (lateness["p99_ms"], "ms", lateness["n"])
        out["generator_lateness_max_ms"] = (lateness["max_ms"], "ms", lateness["n"])
        return out

    def run(self) -> None:
        try:
            self.setup()
            self.drive()
            self.collect()
            self.stop()
        except BaseException:
            self.kill()
            raise
        self.check()


def per_layer(workload: str, untraced: Pass, traced: Pass) -> Dict[str, float]:
    from xbench import layers, spans

    spec = WORKLOADS[workload]
    result = traced.result
    t0, t1 = result.t_first, result.t_ack
    items = result.ack.get("received", 0)
    windows = len(result.windows)
    primary = spans.load(str(traced.spans_primary))
    replica = (spans.load(str(traced.spans_replica))
               if traced.spans_replica is not None and traced.spans_replica.exists()
               else [])
    out, calls, table = layers.span_layers(primary, replica, t0, t1, items, windows)
    traced.self_table = table
    samples = layers.parse_metrics(traced.metrics_text)
    for phase in ("snapshot", "publish", "shard", "checkpoint", "merge"):
        value, count = layers.phase_ms(samples, phase)
        out[f"phase.{phase}_ms_per_window"] = value
        calls[f"phase.{phase}_ms_per_window"] = count
    hits = samples.get(("runtime_merged_cache_hits_total", ""), 0.0)
    misses = samples.get(("runtime_merged_cache_misses_total", ""), 0.0)
    out["sharded.merged_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    calls["sharded.merged_cache_hit_ratio"] = int(hits + misses)
    out["sharded.restarts_retries"] = (
        samples.get(("runtime_shard_restarts_total", ""), 0.0)
        + samples.get(("runtime_command_retries_total", ""), 0.0))
    shards = traced.engine_stats["shards"]
    routed = [shard["items_routed"] for shard in shards]
    busy = [shard["worker"]["busy_seconds"] for shard in shards]
    out["sharded.shard_skew"] = max(routed) / (sum(routed) / len(routed))
    out["engine.busy_us_per_item"] = sum(busy) / items * 1e6
    out["engine.busy_ratio"] = max(busy) / (t1 - t0)
    out["protocol.frame_bytes_per_item"] = result.frame_bytes / items
    engine = make_reference()
    config = engine.config
    engine.close()
    out.update(layers.routed_replay(
        result.windows[:layers.REPLAY_WINDOWS], 512, config, 2, 0))
    if spec["loop"] == "open":
        deltas = traced.subscriber.deltas
        out["publisher.delta_bytes_per_window"] = sum(d[3] for d in deltas) / len(deltas)
        calls["publisher.delta_bytes_per_window"] = len(deltas)
        out["replica.full_syncs"] = float(traced.replica_stats["full_syncs"])
        calls["replica.full_syncs"] = len(deltas)
    traced.standalone = sorted(
        name for name in layers.TIME_TRAVEL_LAYERS if not calls.get(name))
    if traced.standalone:
        alone = layers.standalone_pass(
            traced.windows[:layers.STANDALONE_WINDOWS], 512, make_reference)
        for name in traced.standalone:
            out[name] = alone[name]
    out["trace.overhead_ratio"] = traced.ingest_mops() / untraced.ingest_mops()
    return {name: out[name] for name in layers.PER_LAYER}


def print_table(title: str, rows) -> None:
    print(f"# {title}")
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"#   {name:<36} {shown:>14} {unit:<12} {note}")


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from xbench.layers import PER_LAYER
    from xbench.stats import highest_supported_percentile

    spec = WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / f"{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and the services stay in the checkout.
    os.environ["TMPDIR"] = str(run_dir)
    try:
        windows = build_windows(spec, args.seed, args.seconds)
        untraced = Pass(args.workload, windows, args.seconds, False, run_dir)
        untraced.run()
        passes = [untraced]
        traced = None
        if args.trace:
            traced = Pass(args.workload, windows, args.seconds, True, run_dir)
            traced.run()
            passes.append(traced)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        problems = [f"{'traced' if p.traced else 'untraced'}: {msg}"
                    for p in passes for msg in p.problems]
        e2e = untraced.end_to_end()
        print(f"# workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds} cpus {os.cpu_count()}")
        rows = [(name, e2e[name], END_TO_END[name], "") for name in END_TO_END]
        rows.append(("ingest_mops_first_frame_to_ack", untraced.mops(), "Mops",
                     "items acked / (ack - first frame)"))
        rows += [(name, value, unit,
                  f"n={n}, highest supported p{highest_supported_percentile(n) or 0:g}")
                 for name, (value, unit, n) in untraced.live_latencies().items()]
        rows.append(("error_rate", failed / attempted, "ratio",
                     f"{failed}/{attempted}"))
        rows.append(("ingest_mops_slice_median", untraced.measured_mops(), "Mops",
                     "median slice rate, host steal included"))
        rows.append(("host_steal_share", untraced.steal_share, "ratio",
                     "CPU time the hypervisor took while the run drove the service"))
        rows.append(("setup_s samples", None, "s",
                     " ".join(f"{v:.4f}" for v in untraced.setup_samples)))
        print_table("end to end (tracing off)", rows)
        if traced is not None:
            metrics = per_layer(args.workload, untraced, traced)
            print_table("per layer (traced run)", [
                (name, metrics[name], PER_LAYER[name],
                 "standalone" if name in traced.standalone else "")
                for name in PER_LAYER])
            table = traced.self_table
            print_table("primary self time over the timed interval", [
                (name, seconds, "s", f"calls={table['calls'].get(name, 0)}")
                for name, seconds in sorted(table["self"].items())
            ] + [("residual", table["residual"], "s", ""),
                 ("wall", table["wall"], "s",
                  f"sum={sum(table['self'].values()) + table['residual']:.6f}")])
            out_metrics = {name: {"value": metrics[name], "unit": PER_LAYER[name]}
                           for name in PER_LAYER}
        else:
            out_metrics = {name: {"value": e2e[name], "unit": END_TO_END[name]}
                           for name in END_TO_END}
        for problem in problems:
            print(f"# FAILED CHECK: {problem}")
        correct = not problems and failed == 0
        line = {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": out_metrics}
        if args.record:
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "trace": args.trace, **line}) + "\n")
        print(json.dumps(line))
        return 0 if correct else 1
    except (BenchError, OSError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()  # only when no other run is using it


def _terminated(signum, frame) -> None:
    # Unwind through the finally/except paths that kill the service tree.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _terminated)
    if argv and argv[0] == "compare":
        from xbench.compare import main as compare_main

        return compare_main(argv[1:], ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="JSONL",
                        help="also append the result line, tagged with "
                        "workload/seed/trace, to this file (for compare)")
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
