"""Command-line interface: ``python -m repro <command>``.

Commands:

``run``
    Run X-Sketch (or the baseline) over a dataset substitute and print
    reports and accuracy against the exact oracle.
``datasets``
    List the available dataset substitutes, or generate one to CSV.
``figure``
    Regenerate one of the paper's figures (see ``--list``).
``ml``
    Run the Section-VI ML comparison (Tables II/III).
``serve``
    Boot the async ingest/query service over an engine (docs/SERVICE.md).
    ``--temporal`` attaches the Hokusai time-travel tier
    (docs/TEMPORAL.md): ``/reports?range=a:b`` and ``/history`` go
    live, ``temporal_*`` metrics appear on ``/metrics``.
``history``
    Inspect sketch history: the retention ladder, range report
    queries, growth ranking and frequency estimates — against a saved
    store directory (``--store``) or a running service (``--port``).
``loadgen``
    Replay a dataset substitute against a running service.
``stats``
    Run an algorithm over a dataset and print its aggregated metrics
    registry in Prometheus text format (docs/OBSERVABILITY.md) — or,
    with ``--port``, fetch a running tier's ``/metrics``.  ``--phases``
    renders the ``pipeline_phase_seconds`` histograms as a per-phase
    latency table instead.
``trace``
    Fetch a running tier's causal span trace (``serve --trace`` /
    ``replica --trace``) and print or save it as span JSONL or
    Chrome/Perfetto ``trace_event`` JSON.
``lint``
    Run the codebase-specific AST lint rules (docs/LINT.md).

``run``, ``serve`` and ``stats`` accept
``--engine xsketch|batched|vectorized`` to pick the ingest
representation for xs-cm / xs-cu (applies per shard with
``--shards > 1``; see docs/RUNTIME.md "Engine selection"), and
``--obs-trace <path>``: attach a live recorder and dump the
decision-trace ring as JSONL on exit.
With ``--shards > 1`` they also accept the sharded runtime's
self-healing knobs (``--supervise``, ``--auto-checkpoint-interval``,
``--max-restarts``) and deterministic fault injection
(``--inject-fault``, repeatable; see docs/RUNTIME.md "Fault
tolerance").
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.config import StreamGeometry
from repro.core.oracle import SimplexOracle
from repro.fitting.simplex import SimplexTask
from repro.metrics.classification import score_reports
from repro.metrics.error import lasting_time_are
from repro.streams.datasets import DATASET_GENERATORS, make_dataset
from repro.streams.io import save_trace_csv
from repro.version import __version__

ALL_DATASETS = sorted(DATASET_GENERATORS) + ["transactional"]


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _parse_addr(value: str, default_host: Optional[str] = None):
    """Parse ``HOST:PORT`` (or bare ``PORT`` with a ``default_host``)."""
    host, sep, port_text = value.rpartition(":")
    if not sep:
        host, port_text = default_host, value
    if not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad port in {value!r}: {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range in {value!r}")
    return host, port


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=ALL_DATASETS, default="ip_trace")
    parser.add_argument("--windows", type=int, default=40, help="number of windows")
    parser.add_argument("--window-size", type=int, default=2000, help="items per window")
    parser.add_argument("--seed", type=int, default=0)


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=["xsketch", "batched", "vectorized"],
        default="xsketch",
        help="ingest representation for xs-cm/xs-cu: per-arrival "
        "(xsketch), dict-batched or numpy-vectorized; applies per shard "
        "with --shards > 1 (docs/RUNTIME.md, 'Engine selection')",
    )


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Self-healing / fault-injection knobs of the sharded runtime."""
    parser.add_argument(
        "--supervise", action=argparse.BooleanOptionalAction, default=True,
        help="self-heal dead/wedged shard workers from the last "
        "auto-checkpoint (process backend; docs/RUNTIME.md)",
    )
    parser.add_argument(
        "--auto-checkpoint-interval", type=int, default=1, metavar="N",
        help="checkpoint every N-th window boundary for restarts (0 disables)",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="total supervised restarts before giving up (default 5)",
    )
    parser.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="deterministic worker fault, e.g. "
        "'kill:shard=0,window=3,point=checkpoint' or "
        "'drop_reply:shard=1,op=end_window' (repeatable; needs "
        "--shards > 1 and the process backend)",
    )


def _shard_kwargs(args: argparse.Namespace) -> dict:
    """Translate supervision CLI flags into make_algorithm keywords."""
    from repro.runtime.faults import parse_faults

    faults = parse_faults(args.inject_fault)
    if faults and (args.shards < 2 or args.shard_backend != "process"):
        raise SystemExit(
            "--inject-fault needs --shards >= 2 and --shard-backend process"
        )
    return dict(
        supervise=args.supervise,
        auto_checkpoint_interval=args.auto_checkpoint_interval,
        max_restarts=args.max_restarts,
        shard_faults=faults or None,
    )


def _trace_events(algorithm) -> List[dict]:
    """Decision-trace events of a finished algorithm ([] when obs is off)."""
    trace_events = getattr(algorithm, "trace_events", None)
    if trace_events is not None:
        return trace_events()
    ring = getattr(getattr(algorithm, "recorder", None), "trace", None)
    return ring.events() if ring is not None else []


def _dump_trace(events: List[dict], path: str) -> None:
    from repro.obs.trace import write_jsonl

    written = write_jsonl(events, path)
    print(f"wrote {written} trace events to {path}", flush=True)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.harness import make_algorithm

    task = SimplexTask(k=args.k, p=args.p, T=args.T, L=args.L)
    trace = make_dataset(args.dataset, args.windows, args.window_size, args.seed)
    algorithm = make_algorithm(
        args.algorithm, task, args.memory_kb, seed=args.seed,
        shards=args.shards, shard_backend=args.shard_backend,
        engine=args.engine,
        observability=args.obs_trace is not None,
        **_shard_kwargs(args),
    )
    try:
        for window in trace.windows():
            algorithm.run_window(window)
        reports = algorithm.reports
        if args.obs_trace is not None:
            # Gather before close(): process-backend shard workers hold
            # their rings and cannot be queried once stopped.
            _dump_trace(_trace_events(algorithm), args.obs_trace)
        if args.shards > 1 and not args.quiet:
            for shard in algorithm.stats().shards:
                print(
                    f"shard {shard.shard_id}: routed={shard.items_routed} "
                    f"batches={shard.batches_sent} "
                    f"busy={shard.worker.busy_seconds:.2f}s "
                    f"tracked={shard.worker.stats.stage2_tracked}"
                )
    finally:
        if hasattr(algorithm, "close"):
            algorithm.close()
    if not args.quiet:
        for report in reports:
            coeffs = ", ".join(f"{c:+.3f}" for c in report.coefficients)
            print(
                f"w={report.report_window:4d} item={report.item} "
                f"start={report.start_window} lasting={report.lasting_time} "
                f"fit=[{coeffs}] mse={report.mse:.3f}"
            )
    oracle = SimplexOracle.from_stream(trace.windows(), task)
    scores = score_reports(reports, oracle.instances)
    are = lasting_time_are(reports, oracle)
    print(
        f"\n{args.algorithm} on {args.dataset} ({args.windows}x{args.window_size}, "
        f"k={args.k}, {args.memory_kb}KB): "
        f"PR={scores.precision:.3f} RR={scores.recall:.3f} F1={scores.f1:.3f} "
        f"ARE={are:.3f} ({scores.true_positives}/{scores.actual} instances)"
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.generate is None:
        print("available dataset substitutes (see DESIGN.md section 3):")
        for name in ALL_DATASETS:
            print(f"  {name}")
        return 0
    trace = make_dataset(args.generate, args.windows, args.window_size, args.seed)
    save_trace_csv(trace, args.output)
    print(
        f"wrote {args.generate} ({args.windows}x{args.window_size}, "
        f"{trace.distinct_items()} distinct items) to {args.output}"
    )
    return 0


FIGURES = {
    "fig3": ("param_sweep p (F1 vs p)", lambda k, g, s: _sweep("p", [4, 5, 6, 7, 8], k, g, s)),
    "fig4": ("param_sweep u", lambda k, g, s: _sweep("u", [1, 2, 3, 4, 5, 6, 7, 8], k, g, s)),
    "fig5": ("param_sweep r", lambda k, g, s: _sweep("r", [0.1 * i for i in range(1, 10)], k, g, s)),
    "fig6": ("param_sweep s", lambda k, g, s: _sweep("s", [3, 4, 5, 6, 7], k, g, s)),
    "fig7": ("param_sweep G", lambda k, g, s: _sweep("G", [0.0, 0.25, 0.5, 0.75, 1.0], k, g, s)),
    "fig8": ("param_sweep T", lambda k, g, s: _sweep("T", [1, 2, 3, 4, 5, 6, 7, 8], k, g, s)),
    "fig9": ("Stage-1 structure comparison", None),
    "grid": ("PR/RR/F1/ARE/Mops vs memory over all datasets", None),
    "ablation": ("Stage-2 replacement-policy ablation", None),
}


def _sweep(param, values, k, geometry, seed):
    from repro.experiments.figures import param_sweep

    return [param_sweep(param, values, k=k, geometry=geometry, seed=seed)]


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        print("figures:")
        for name, (description, _) in FIGURES.items():
            print(f"  {name:10s} {description}")
        return 0
    geometry = StreamGeometry(n_windows=args.windows, window_size=args.window_size)
    tables = []
    if args.name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        tables = FIGURES[args.name][1](args.k, geometry, args.seed)
    elif args.name == "fig9":
        from repro.experiments.figures import stage1_structure_comparison

        tables = [stage1_structure_comparison(k=args.k, geometry=geometry, seed=args.seed)]
    elif args.name == "grid":
        from repro.experiments.figures import dataset_comparison, metric_tables

        results = dataset_comparison(args.k, geometry=geometry, seed=args.seed)
        for metric in ("pr", "rr", "f1", "are", "mops"):
            tables.extend(metric_tables(results, metric, args.k).values())
    elif args.name == "ablation":
        from repro.experiments.figures import replacement_ablation

        tables = [replacement_ablation(k=args.k, geometry=geometry, seed=args.seed)]
    else:
        print(f"unknown figure {args.name!r}; use --list", file=sys.stderr)
        return 2
    for table in tables:
        print(table.render())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    generate_report(path=args.output, scale=args.scale, seed=args.seed)
    print(f"wrote {args.scale}-scale evaluation report to {args.output}")
    return 0


def _cmd_ml(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ml_comparison_table

    geometry = StreamGeometry(n_windows=args.windows, window_size=args.window_size)
    text, results = ml_comparison_table(
        dataset=args.dataset, memory_kb=args.memory_kb, geometry=geometry, seed=args.seed
    )
    print(text)
    for k, result in results.items():
        print(
            f"k={k}: speedup vs LinReg {result.speedup_over_linreg():.1f}x, "
            f"vs ARIMA {result.speedup_over_arima():.1f}x"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments.harness import make_algorithm
    from repro.obs import phase_table, render_text

    if args.port is not None:
        # Live mode: the registry is whatever a running tier exposes on
        # /metrics — round-tripped through the exposition parser, so
        # --phases works identically on fetched and locally-built views.
        from urllib.error import URLError
        from urllib.request import urlopen

        from repro.obs.expo import parse_text

        url = f"http://{args.host}:{args.port}/metrics"
        try:
            with urlopen(url) as response:
                text = response.read().decode("utf-8")
        except URLError as exc:
            raise SystemExit(f"cannot reach {url}: {exc}") from None
        if args.phases:
            print(phase_table(parse_text(text)))
        else:
            print(text, end="")
        return 0
    task = SimplexTask(k=args.k, p=args.p, T=args.T, L=args.L)
    trace = make_dataset(args.dataset, args.windows, args.window_size, args.seed)
    algorithm = make_algorithm(
        args.algorithm, task, args.memory_kb, seed=args.seed,
        shards=args.shards, shard_backend=args.shard_backend,
        engine=args.engine,
        observability=True,
        **_shard_kwargs(args),
    )
    collect = getattr(algorithm, "metrics_registry", None)
    if collect is None:
        print(
            f"algorithm {args.algorithm!r} does not export metrics",
            file=sys.stderr,
        )
        return 2
    try:
        for window in trace.windows():
            algorithm.run_window(window)
        registry = collect()
        # Coordinator-phase timings live outside the canonical registry
        # (they would break cross-backend determinism); fold them in for
        # the human-facing view.
        coordinator_metrics = getattr(algorithm, "coordinator_metrics", None)
        if coordinator_metrics is not None:
            registry.merge(coordinator_metrics)
        if args.obs_trace is not None:
            _dump_trace(_trace_events(algorithm), args.obs_trace)
    finally:
        if hasattr(algorithm, "close"):
            algorithm.close()
    if args.phases:
        print(phase_table(registry))
    else:
        print(render_text(registry), end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.experiments.harness import make_algorithm
    from repro.service import ServiceConfig, StreamService

    task = SimplexTask(k=args.k, p=args.p, T=args.T, L=args.L)
    engine = make_algorithm(
        args.algorithm, task, args.memory_kb, seed=args.seed,
        shards=args.shards, shard_backend=args.shard_backend,
        engine=args.engine,
        observability=args.obs_trace is not None,
        **_shard_kwargs(args),
    )
    temporal = None
    if args.temporal:
        from repro.temporal import TemporalPolicy, TemporalStore

        policy = TemporalPolicy(
            level_capacity=args.temporal_level_capacity,
            fidelity_windows=args.temporal_fidelity,
            spill_dir=args.temporal_spill_dir,
        )
        temporal = TemporalStore(policy, seed=args.seed)
        from repro.runtime.sharded import ShardedXSketch

        if isinstance(engine, ShardedXSketch):
            # A sharded engine feeds the store itself (every dispatched
            # arrival, merged snapshots off its per-window memo); other
            # engines are fed by the window manager.
            engine.temporal = temporal
    publish_port = None
    if args.publish is not None:
        publish_host, publish_port = _parse_addr(args.publish, args.host)
        if publish_host != args.host:
            raise SystemExit(
                f"--publish host {publish_host!r} must match --host "
                f"{args.host!r} (all listeners bind one interface)"
            )
    config = ServiceConfig(
        host=args.host,
        ingest_port=args.ingest_port,
        http_port=args.http_port,
        publish_port=publish_port,
        publish_history=args.publish_history,
        window_size=args.window_size,
        window_seconds=args.window_seconds,
        micro_batch=args.micro_batch,
        queue_batches=args.queue_batches,
        overload=args.overload,
        checkpoint_dir=args.checkpoint_dir,
        on_engine_error=args.on_engine_error,
        trace=args.trace,
        trace_capacity=args.trace_capacity,
    )

    async def _run() -> StreamService:
        service = StreamService(engine, config, temporal=temporal)
        await service.start()
        ingest_host, ingest_port = service.ingest_address
        http_host, http_port = service.http_address
        publish = ""
        if service.publisher is not None:
            pub_host, pub_port = service.publish_address
            publish = f"publish={pub_host}:{pub_port} "
        print(
            f"serving ingest={ingest_host}:{ingest_port} "
            f"http={http_host}:{http_port} {publish}"
            f"(algorithm={args.algorithm}, engine={args.engine}, "
            f"shards={args.shards}, "
            f"window_size={config.window_size}, overload={config.overload})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # non-unix
                loop.add_signal_handler(signum, service.request_stop)
        if args.duration is not None:
            loop.call_later(args.duration, service.request_stop)
        await service.wait_stopped()
        return service

    service = asyncio.run(_run())
    if args.obs_trace is not None:
        _dump_trace(service.trace_events, args.obs_trace)
    manager = service.manager
    print(
        f"drained: windows={manager.windows_closed} "
        f"reports={len(manager.snapshot.reports)} "
        f"items={manager.items_total} dropped={service.dropped_items}",
        flush=True,
    )
    if service.temporal is not None:
        snap = service.temporal.snapshot
        print(
            f"temporal: windows={snap.windows_observed} "
            f"nodes={len(snap.nodes)} depth={snap.depth} "
            f"coarsenings={snap.coarsenings}",
            flush=True,
        )
        if args.temporal_save is not None:
            service.temporal.save(args.temporal_save)
            print(f"temporal store saved to {args.temporal_save}", flush=True)
    if service.failure is not None:
        print(f"engine failure: {service.failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_replica(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.replica import ReplicaConfig, ReplicaServer

    try:
        subscribe_host, subscribe_port = _parse_addr(args.subscribe)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"--subscribe: {exc}") from None
    config = ReplicaConfig(
        subscribe_host=subscribe_host,
        subscribe_port=subscribe_port,
        host=args.host,
        http_port=args.http_port,
        reconnect_seconds=args.reconnect_seconds,
        trace=args.trace,
    )

    async def _run() -> ReplicaServer:
        replica = ReplicaServer(config)
        await replica.start()
        http_host, http_port = replica.http_address
        print(
            f"replica http={http_host}:{http_port} "
            f"subscribed={subscribe_host}:{subscribe_port}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # non-unix
                loop.add_signal_handler(signum, stop.set)
        if args.duration is not None:
            loop.call_later(args.duration, stop.set)
        await stop.wait()
        await replica.stop()
        return replica

    replica = asyncio.run(_run())
    state = replica.state
    print(
        f"replica stopped: seq={state.seq if state is not None else None} "
        f"window={state.window if state is not None else None} "
        f"full_syncs={replica.full_syncs} deltas={replica.deltas_applied} "
        f"reconnects={replica.reconnects} queries={replica.queries}",
        flush=True,
    )
    return 0


def _print_report_line(report) -> None:
    coeffs = ", ".join(f"{c:+.3f}" for c in report.coefficients)
    print(
        f"w={report.report_window:4d} item={report.item} "
        f"start={report.start_window} lasting={report.lasting_time} "
        f"fit=[{coeffs}] mse={report.mse:.3f}"
    )


def _history_range(args):
    """The validated --range (None when absent); SystemExit on bad input."""
    from repro.errors import ConfigurationError
    from repro.temporal.query import parse_range

    if args.range is None:
        return None
    try:
        return parse_range(args.range)
    except ConfigurationError as exc:
        raise SystemExit(f"--range: {exc}") from None


def _cmd_history_store(args) -> int:
    """Offline mode: query a saved temporal store directory."""
    from repro.temporal import restore_store

    store = restore_store(args.store)
    snap = store.snapshot
    rq = _history_range(args)
    print(
        f"temporal ladder: base={snap.base} tip={snap.tip} "
        f"windows={snap.windows_observed} nodes={len(snap.nodes)} "
        f"depth={snap.depth} coarsenings={snap.coarsenings}"
    )
    for row in store.history():
        print(
            f"  L{row['level']} [{row['start']:6d},{row['end']:6d}) "
            f"windows={row['windows']:<5d} items={row['items']:<8d} "
            f"reports={row['reports']:<4d} {row['tier']}"
            f"{' asof' if row['asof'] else ''}"
        )
    start, end = (rq.start, rq.end) if rq is not None else (
        snap.base or 0, (snap.tip or 1) - 1
    )
    if args.item is not None:
        estimate = store.range_frequency(args.item, start, end)
        simplex = store.was_simplex(args.item, start, end)
        print(
            f"item {args.item!r} over [{start},{end}]: "
            f"~{estimate} arrivals, simplex={'yes' if simplex else 'no'}"
        )
    if rq is not None and args.item is None:
        reports = store.range_reports(start, end)
        print(f"reports in [{start},{end}]: {len(reports)}")
        for report in reports:
            _print_report_line(report)
    if args.growth is not None:
        ranked = store.top_growth(start, end, top=args.growth)
        print(f"top {args.growth} growth over [{start},{end}]:")
        for report, slope in ranked:
            print(f"  slope={slope:+.3f} item={report.item} w={report.report_window}")
    return 0


def _cmd_history_live(args) -> int:
    """Live mode: query a running service over HTTP."""
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.core.reports import SimplexReport

    rq = _history_range(args)
    base_url = f"http://{args.host}:{args.port}"
    try:
        with urlopen(f"{base_url}/history") as response:
            history = json.loads(response.read())
    except URLError as exc:
        raise SystemExit(f"cannot reach {base_url}/history: {exc}") from None
    print(
        f"temporal ladder: base={history['base']} tip={history['tip']} "
        f"windows={history['windows_observed']} nodes={len(history['nodes'])} "
        f"depth={history['depth']} coarsenings={history['coarsenings']}"
    )
    for row in history["nodes"]:
        print(
            f"  L{row['level']} [{row['start']:6d},{row['end']:6d}) "
            f"windows={row['windows']:<5d} items={row['items']:<8d} "
            f"reports={row['reports']:<4d} {row['tier']}"
            f"{' asof' if row['asof'] else ''}"
        )
    if rq is None and args.growth is None:
        return 0
    start, end = (rq.start, rq.end) if rq is not None else (
        history["base"] or 0, (history["tip"] or 1) - 1
    )
    url = f"{base_url}/reports?range={start}:{end}"
    if args.item is not None:
        url += f"&item={args.item}"
    with urlopen(url) as response:
        payload = json.loads(response.read())
    reports = [
        SimplexReport(
            item=entry["item"],
            start_window=entry["start_window"],
            report_window=entry["report_window"],
            lasting_time=entry["lasting_time"],
            coefficients=tuple(entry["coefficients"]),
            mse=entry["mse"],
        )
        for entry in payload["reports"]
    ]
    if args.growth is not None:
        from repro.temporal.query import rank_growth

        print(f"top {args.growth} growth over [{start},{end}]:")
        for report, slope in rank_growth(reports, args.growth):
            print(f"  slope={slope:+.3f} item={report.item} w={report.report_window}")
    else:
        print(f"reports in [{start},{end}]: {payload['total']}")
        for report in reports:
            _print_report_line(report)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    if (args.store is None) == (args.port is None):
        raise SystemExit(
            "history needs exactly one of --store DIR (saved store) "
            "or --port PORT (running service)"
        )
    if args.store is not None:
        return _cmd_history_store(args)
    return _cmd_history_live(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    url = f"http://{args.host}:{args.port}/trace"
    params = []
    if args.format == "chrome":
        params.append("format=chrome")
    if args.trace_id is not None:
        params.append(f"trace_id={args.trace_id}")
    if params:
        url += "?" + "&".join(params)
    try:
        with urlopen(url) as response:
            payload = json.loads(response.read())
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        with contextlib.suppress(ValueError, KeyError):
            detail = json.loads(detail)["error"]
        raise SystemExit(f"trace fetch failed ({exc.code}): {detail}") from None
    except URLError as exc:
        raise SystemExit(f"cannot reach {url}: {exc}") from None
    if args.format == "chrome":
        text = json.dumps(payload, indent=2)
        n_events = len(payload.get("traceEvents", ()))
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(
                f"wrote Chrome trace ({n_events} events) to {args.output} "
                f"— load it in chrome://tracing or ui.perfetto.dev",
                flush=True,
            )
        else:
            print(text)
        return 0
    events = payload["events"]
    if args.output is not None:
        from repro.obs.spans import write_spans_jsonl

        written = write_spans_jsonl(events, args.output)
        print(
            f"wrote {written} span events to {args.output} "
            f"(recorded={payload['recorded']}, dropped={payload['dropped']})",
            flush=True,
        )
    else:
        for event in events:
            print(json.dumps(event))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import run_loadgen

    trace = make_dataset(args.dataset, args.windows, args.window_size, args.seed)
    stats = run_loadgen(
        trace,
        args.host,
        args.port,
        connections=args.connections,
        batch_size=args.batch_size,
        protocol=args.protocol,
        ordered=not args.unordered,
        shutdown=args.shutdown,
    )
    print(stats.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="X-Sketch reproduction: find k-simplex items in data streams",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    run = subparsers.add_parser("run", help="run an algorithm over a dataset")
    _add_stream_args(run)
    run.add_argument(
        "--algorithm",
        choices=["xs-cm", "xs-cu", "xs-batched", "xs-vectorized", "baseline"],
        default="xs-cu",
    )
    run.add_argument("-k", type=int, default=1, help="polynomial degree")
    run.add_argument("-p", type=int, default=7, help="windows in the definition")
    run.add_argument("-T", type=float, default=2.0, help="MSE threshold")
    run.add_argument("-L", type=float, default=1.0, help="|a_k| lower bound")
    run.add_argument("--memory-kb", type=float, default=30.0)
    run.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition the stream over N X-Sketch shards (xs-cm/xs-cu only)",
    )
    run.add_argument(
        "--shard-backend", choices=["process", "inline"], default="process",
        help="run shards as worker processes or in-process",
    )
    _add_engine_arg(run)
    _add_supervision_args(run)
    run.add_argument("--quiet", action="store_true", help="metrics only, no reports")
    run.add_argument(
        "--obs-trace", default=None, metavar="PATH",
        help="record decision traces and dump them as JSONL to PATH on exit",
    )
    run.set_defaults(handler=_cmd_run)

    stats = subparsers.add_parser(
        "stats",
        help="run an algorithm, print its metrics registry (Prometheus text)",
    )
    _add_stream_args(stats)
    stats.add_argument(
        "--algorithm",
        choices=["xs-cm", "xs-cu", "xs-batched", "xs-vectorized", "baseline"],
        default="xs-cu",
    )
    stats.add_argument("-k", type=int, default=1, help="polynomial degree")
    stats.add_argument("-p", type=int, default=7, help="windows in the definition")
    stats.add_argument("-T", type=float, default=2.0, help="MSE threshold")
    stats.add_argument("-L", type=float, default=1.0, help="|a_k| lower bound")
    stats.add_argument("--memory-kb", type=float, default=30.0)
    stats.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition the stream over N X-Sketch shards (xs-cm/xs-cu only)",
    )
    stats.add_argument(
        "--shard-backend", choices=["process", "inline"], default="process"
    )
    _add_engine_arg(stats)
    _add_supervision_args(stats)
    stats.add_argument(
        "--obs-trace", default=None, metavar="PATH",
        help="also dump the decision-trace ring as JSONL to PATH",
    )
    stats.add_argument(
        "--host", default="127.0.0.1",
        help="with --port: host of the live service to scrape",
    )
    stats.add_argument(
        "--port", type=int, default=None,
        help="scrape a live service's /metrics instead of running locally",
    )
    stats.add_argument(
        "--phases", action="store_true",
        help="render the per-window phase profile as a table instead of "
             "the raw Prometheus text",
    )
    stats.set_defaults(handler=_cmd_stats)

    datasets = subparsers.add_parser("datasets", help="list or export dataset substitutes")
    datasets.add_argument("--generate", choices=ALL_DATASETS, default=None)
    datasets.add_argument("--output", default="trace.csv")
    datasets.add_argument("--windows", type=int, default=40)
    datasets.add_argument("--window-size", type=int, default=2000)
    datasets.add_argument("--seed", type=int, default=0)
    datasets.set_defaults(handler=_cmd_datasets)

    figure = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", nargs="?", default=None)
    figure.add_argument("--list", action="store_true")
    figure.add_argument("-k", type=int, default=1)
    figure.add_argument("--windows", type=int, default=40)
    figure.add_argument("--window-size", type=int, default=2000)
    figure.add_argument("--seed", type=int, default=0)
    figure.set_defaults(handler=_cmd_figure)

    report = subparsers.add_parser("report", help="run the full evaluation, write markdown")
    report.add_argument("--output", default="RESULTS.md")
    report.add_argument("--scale", choices=["small", "full"], default="small")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(handler=_cmd_report)

    ml = subparsers.add_parser("ml", help="Section-VI ML comparison")
    ml.add_argument("--dataset", choices=ALL_DATASETS, default="ip_trace")
    ml.add_argument("--memory-kb", type=float, default=40.0)
    ml.add_argument("--windows", type=int, default=30)
    ml.add_argument("--window-size", type=int, default=2000)
    ml.add_argument("--seed", type=int, default=0)
    ml.set_defaults(handler=_cmd_ml)

    serve = subparsers.add_parser(
        "serve", help="boot the async ingest/query service (docs/SERVICE.md)"
    )
    serve.add_argument(
        "--algorithm", choices=["xs-cm", "xs-cu", "baseline"], default="xs-cu"
    )
    serve.add_argument("-k", type=int, default=1, help="polynomial degree")
    serve.add_argument("-p", type=int, default=7, help="windows in the definition")
    serve.add_argument("-T", type=float, default=2.0, help="MSE threshold")
    serve.add_argument("-L", type=float, default=1.0, help="|a_k| lower bound")
    serve.add_argument("--memory-kb", type=float, default=60.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--shards", type=_positive_int, default=1,
        help="serve a ShardedXSketch with N shards (xs-cm/xs-cu only)",
    )
    serve.add_argument(
        "--shard-backend", choices=["process", "inline"], default="process"
    )
    _add_engine_arg(serve)
    _add_supervision_args(serve)
    serve.add_argument(
        "--on-engine-error", choices=["shutdown", "degrade"], default="degrade",
        help="engine failure policy: fail fast, or stay up serving "
        "last-good snapshots (default: degrade)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--ingest-port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument("--http-port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument(
        "--window-size", type=_positive_int, default=2000,
        help="items per count-based window",
    )
    serve.add_argument(
        "--window-seconds", type=float, default=None,
        help="also close windows on this wall-clock tick",
    )
    serve.add_argument(
        "--micro-batch", type=_positive_int, default=512,
        help="items per engine ingest call, per-arrival engine only "
             "(window-batched engines get one count map per window)",
    )
    serve.add_argument(
        "--queue-batches", type=_positive_int, default=64,
        help="per-connection queue capacity in wire batches",
    )
    serve.add_argument("--overload", choices=["pushback", "drop"], default="pushback")
    serve.add_argument(
        "--checkpoint-dir", default=None,
        help="write a final checkpoint here on drain; default for /checkpoint",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="drain and exit after this many seconds (default: run until signal)",
    )
    serve.add_argument(
        "--obs-trace", default=None, metavar="PATH",
        help="record engine decision traces; dump them as JSONL to PATH on drain",
    )
    serve.add_argument(
        "--temporal", action="store_true",
        help="retain sketch history in a Hokusai-style dyadic ladder; "
        "enables /reports?range=a:b and /history (docs/TEMPORAL.md)",
    )
    serve.add_argument(
        "--temporal-level-capacity", type=_positive_int, default=2, metavar="N",
        help="retained nodes per dyadic level before coarsening (default 2)",
    )
    serve.add_argument(
        "--temporal-fidelity", type=int, default=4, metavar="N",
        help="recent windows keeping a full merged-sketch snapshot "
        "(0 disables deep time travel; default 4)",
    )
    serve.add_argument(
        "--temporal-spill-dir", default=None, metavar="DIR",
        help="spill old node payloads to this directory (cold tier)",
    )
    serve.add_argument(
        "--temporal-save", default=None, metavar="DIR",
        help="persist the whole temporal store here on drain "
        "(readable by 'repro history --store DIR')",
    )
    serve.add_argument(
        "--publish", default=None, metavar="[HOST:]PORT",
        help="stream sequenced slim snapshots to read replicas on this "
        "port at every window boundary (0 = ephemeral; docs/REPLICA.md)",
    )
    serve.add_argument(
        "--publish-history", type=_positive_int, default=512, metavar="N",
        help="DELTA frames retained for replica resume-from-sequence "
        "(default 512; older reconnects fall back to a full sync)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="record causal pipeline spans (ingest frame through replica "
        "publish); export with 'repro trace' or GET /trace",
    )
    serve.add_argument(
        "--trace-capacity", type=_positive_int, default=4096, metavar="N",
        help="span events retained in the trace ring (default 4096)",
    )
    serve.set_defaults(handler=_cmd_serve)

    replica = subparsers.add_parser(
        "replica",
        help="boot a read replica subscribed to a publishing service "
        "(docs/REPLICA.md)",
    )
    replica.add_argument(
        "--subscribe", required=True, metavar="HOST:PORT",
        help="the primary's publish listener ('repro serve --publish')",
    )
    replica.add_argument("--host", default="127.0.0.1")
    replica.add_argument("--http-port", type=int, default=0, help="0 = ephemeral")
    replica.add_argument(
        "--reconnect-seconds", type=float, default=0.5, metavar="S",
        help="delay between subscriber reconnect attempts (default 0.5)",
    )
    replica.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until signal)",
    )
    replica.add_argument(
        "--trace", action="store_true",
        help="record replica-apply spans that join the primary's trace "
        "trees (export with 'repro trace' or GET /trace)",
    )
    replica.set_defaults(handler=_cmd_replica)

    history = subparsers.add_parser(
        "history",
        help="inspect sketch history: retention ladder and range queries",
    )
    history.add_argument(
        "--store", default=None, metavar="DIR",
        help="a saved temporal store ('repro serve --temporal-save DIR')",
    )
    history.add_argument("--host", default="127.0.0.1")
    history.add_argument(
        "--port", type=int, default=None,
        help="HTTP port of a running 'repro serve --temporal' service",
    )
    history.add_argument(
        "--range", default=None, metavar="A:B",
        help="print the simplex reports of windows A..B (inclusive)",
    )
    history.add_argument(
        "--item", default=None,
        help="with --store: estimate the item's arrivals over --range "
        "(whole history when no range); live mode filters reports",
    )
    history.add_argument(
        "--growth", type=_positive_int, default=None, metavar="N",
        help="rank the N steepest items by fitted slope over --range",
    )
    history.set_defaults(handler=_cmd_history)

    loadgen = subparsers.add_parser(
        "loadgen", help="replay a dataset substitute against a running service"
    )
    _add_stream_args(loadgen)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True, help="ingest port")
    loadgen.add_argument("--connections", type=_positive_int, default=1)
    loadgen.add_argument("--batch-size", type=_positive_int, default=512)
    loadgen.add_argument("--protocol", choices=["framed", "jsonl"], default="framed")
    loadgen.add_argument(
        "--unordered", action="store_true",
        help="omit sequence stamps (independent-producer mode)",
    )
    loadgen.add_argument(
        "--shutdown", action="store_true",
        help="ask the service to drain and stop after the replay",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    trace = subparsers.add_parser(
        "trace",
        help="export pipeline spans from a running --trace service",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument(
        "--port", type=int, required=True,
        help="HTTP port of the primary or replica to export from",
    )
    trace.add_argument(
        "--format", choices=["spans", "chrome"], default="spans",
        help="spans = one JSON span event per line; chrome = a "
        "chrome://tracing / Perfetto trace_event document",
    )
    trace.add_argument(
        "--output", default=None, metavar="PATH",
        help="write to PATH instead of stdout",
    )
    trace.add_argument(
        "--trace-id", default=None,
        help="only export the span tree with this trace id",
    )
    trace.set_defaults(handler=_cmd_trace)

    from repro.lint.cli import configure_parser as _configure_lint

    _configure_lint(subparsers)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
