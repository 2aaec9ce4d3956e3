"""The sharded coordinator's count-map ingest path.

For the window-batched engines the coordinator keeps the open window as
one ``{key: count}`` map and routes it at ``flush_window``.  Pinned
here: the capability switch (the per-arrival engine keeps arrival
lists), the boundary-only contract of snapshots while a map is open,
salvage accounting of count-map payloads after a mid-window SIGKILL,
and a golden identity run through the service ``WindowManager`` against
a hand-routed, per-item reference.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.config import XSketchConfig
from repro.core.engines import ENGINE_NAMES, make_engine
from repro.core.xsketch import report_order
from repro.errors import ConfigurationError, RuntimeShardError
from repro.fitting.simplex import SimplexTask
from repro.runtime.faults import Fault
from repro.runtime.partition import KeyPartitioner
from repro.runtime.sharded import ShardedXSketch
from repro.runtime.worker import payload_items
from repro.service.window import WindowManager
from repro.streams.datasets import make_dataset

SEED = 11
N_SHARDS = 2
WIRE_BATCH = 96  # straddles every window boundary below


def _config(memory_kb=60.0):
    return XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=memory_kb)


def _records(reports):
    return [
        (r.item, r.start_window, r.report_window, r.lasting_time,
         tuple(r.coefficients), r.mse)
        for r in reports
    ]


def _wire_batches(windows):
    stream = [item for window in windows for item in window]
    return [stream[i:i + WIRE_BATCH] for i in range(0, len(stream), WIRE_BATCH)]


@pytest.fixture(scope="module")
def planted_windows(controlled_trace):
    return [list(w) for w in controlled_trace.windows()][:12]


class TestCapability:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_coordinator_capability_matches_its_engine(self, engine):
        with ShardedXSketch(
            _config(), n_shards=N_SHARDS, seed=SEED, backend="inline", engine=engine
        ) as sharded:
            expected = make_engine(_config(), seed=SEED, engine=engine).counts_ingest
            assert sharded.counts_ingest is expected

    def test_per_arrival_coordinator_refuses_count_maps(self):
        with ShardedXSketch(
            _config(), n_shards=N_SHARDS, seed=SEED, backend="inline"
        ) as sharded:
            assert not sharded.counts_ingest
            with pytest.raises(ConfigurationError, match="order-sensitive"):
                sharded.ingest_counts({"a": 2})

    def test_routing_happens_at_window_close(self, planted_windows):
        with ShardedXSketch(
            _config(), n_shards=N_SHARDS, seed=SEED, backend="inline",
            engine="vectorized",
        ) as sharded:
            window = planted_windows[0]
            sharded.ingest_batch(window[:300])
            sharded.ingest_counts(Counter(window[300:]))
            assert sum(sharded.items_routed) == 0
            sharded.flush_window()
            assert sum(sharded.items_routed) == len(window)
            # one count map per shard per window
            assert sharded.batches_sent == [1] * N_SHARDS

    def test_payload_items_counts_arrivals_not_keys(self):
        assert payload_items({"a": 5, "b": 2}) == 7
        assert payload_items(["a", "a", "b"]) == 3


class TestBoundaryOnly:
    @pytest.mark.parametrize("call", ["merged_sketch", "checkpoint", "collect"])
    def test_open_window_map_refuses_snapshots(self, call, tmp_path):
        with ShardedXSketch(
            _config(), n_shards=N_SHARDS, seed=SEED, backend="inline",
            engine="vectorized",
        ) as sharded:
            sharded.run_window([f"i{n % 9}" for n in range(90)])
            sharded.insert("pending-item")
            action = {
                "merged_sketch": sharded.merged_sketch,
                "checkpoint": lambda: sharded.checkpoint(tmp_path / "ckpt"),
                "collect": sharded._collect_snapshots,
            }[call]
            with pytest.raises(RuntimeShardError, match="window boundary"):
                action()
            sharded.flush_window()
            action()  # fine again at the boundary


class TestCountMapSalvage:
    def test_vectorized_ingest_kill_loses_at_most_one_window(self, planted_windows):
        """SIGKILL on receipt of a shard's count map: the map is gone,
        and the loss is counted in arrivals (the map's counts), bounded
        by one window."""
        fault = Fault(kind="kill", shard=0, window=5, point="ingest")
        window_size = len(planted_windows[0])
        with ShardedXSketch(
            _config(), n_shards=N_SHARDS, seed=SEED, backend="process",
            reply_timeout=60.0, faults=[fault], engine="vectorized",
        ) as sharded:
            with pytest.warns(RuntimeWarning, match="restarted shard 0"):
                for window in planted_windows:
                    sharded.run_window(window)
            health = sharded.health()
            assert sharded.window == len(planted_windows)
        assert health["restarts_total"] == 1
        assert 0 < health["items_lost_estimate"] <= window_size


def _hand_routed(windows, engine, memory_kb):
    """The item path the count maps must reproduce: ``split`` each wire
    batch, feed each shard's engine one ``insert`` per arrival."""
    config = _config(memory_kb)
    partitioner = KeyPartitioner(N_SHARDS, seed=SEED, hash_family=config.hash_family)
    shards = [make_engine(config, seed=SEED, engine=engine) for _ in range(N_SHARDS)]
    reports = []
    for window in windows:
        for start in range(0, len(window), WIRE_BATCH):
            for shard, part in enumerate(partitioner.split(window[start:start + WIRE_BATCH])):
                for item in part:
                    shards[shard].insert(item)
        merged = [report for shard in shards for report in shard.end_window()]
        reports.extend(sorted(merged, key=report_order))
    return reports


def _through_manager(windows, engine, backend, memory_kb):
    sharded = ShardedXSketch(
        _config(memory_kb), n_shards=N_SHARDS, seed=SEED, backend=backend, engine=engine,
        reply_timeout=60.0,
    )
    manager = WindowManager(sharded, window_size=len(windows[0]), micro_batch=64)

    async def drive():
        for batch in _wire_batches(windows):
            await manager.submit(batch)
        await manager.drain()

    try:
        asyncio.run(drive())
        return list(sharded.reports), manager
    finally:
        sharded.close()


def _golden_windows(name, controlled_trace):
    if name == "planted":
        return [list(w) for w in controlled_trace.windows()][:16]
    return [list(w) for w in make_dataset(name, 16, 600, seed=7).windows()]


class TestGoldenIdentity:
    """Tight budgets on purpose: Stage-2 buckets contend there, so the
    reports depend on the key order the engines see: routing each map
    in reverse key order fails these for every dataset and backend under
    at least one of the two budgets."""

    @pytest.mark.parametrize("memory_kb", [2.0, 3.0])
    @pytest.mark.parametrize("dataset", ["planted", "synthetic", "ip_trace"])
    @pytest.mark.parametrize("backend,engine", [
        ("inline", "vectorized"),
        ("inline", "batched"),
        ("process", "vectorized"),
    ])
    def test_count_maps_match_hand_routed_items(
        self, dataset, backend, engine, memory_kb, controlled_trace
    ):
        windows = _golden_windows(dataset, controlled_trace)
        expected = _records(_hand_routed(windows, engine, memory_kb))
        reports, manager = _through_manager(windows, engine, backend, memory_kb)
        assert expected  # every trace produces reports
        assert _records(reports) == expected
        assert manager.windows_closed == len(windows)
        # one count-map handoff per window, whatever the wire batching
        assert manager.engine_batches == len(windows)
