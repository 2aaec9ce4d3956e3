"""Algorithm instrumentation: observe everything, perturb nothing."""

import pytest

from repro.config import XSketchConfig
from repro.core.batched import BatchedXSketch
from repro.core.xsketch import XSketch
from repro.fitting.simplex import SimplexTask
from repro.obs import MetricsRegistry, Recorder, TraceRing, collect_xsketch
from repro.streams.datasets import ip_trace_stream


def _windows(n=16, size=600, seed=3):
    return [list(w) for w in ip_trace_stream(n_windows=n, window_size=size, seed=seed).windows()]


def _run(sketch, windows):
    for window in windows:
        sketch.run_window(window)
    return sketch


def _config(**overrides):
    return XSketchConfig(task=SimplexTask(k=1), **overrides)


class TestBehaviourNeutrality:
    """A live recorder must never change what the sketch computes."""

    def test_reports_identical_with_and_without_recorder(self):
        windows = _windows()
        plain = _run(XSketch(_config(), seed=7), windows)
        observed = _run(
            XSketch(_config(), seed=7, recorder=Recorder(trace=TraceRing())),
            windows,
        )
        assert observed.reports == plain.reports
        assert observed.stats == plain.stats

    def test_batched_variant_too(self):
        windows = _windows(n=10)
        plain = _run(BatchedXSketch(_config(), seed=7), windows)
        observed = _run(
            BatchedXSketch(_config(), seed=7, recorder=Recorder(trace=TraceRing())),
            windows,
        )
        assert observed.reports == plain.reports

    def test_election_instrumentation_does_not_consume_rng(self):
        # Crowd Stage 2 (tiny table) so elections actually happen; the
        # replacement coin flips must land identically either way.
        config = _config(memory_kb=6.0)
        windows = _windows(n=20, size=900)
        plain = _run(XSketch(config, seed=11), windows)
        observed = _run(
            XSketch(config, seed=11, recorder=Recorder(trace=TraceRing())),
            windows,
        )
        assert plain.stats.replacements_won + plain.stats.replacements_lost > 0
        assert observed.stats == plain.stats
        assert observed.reports == plain.reports


class TestExactCounters:
    def test_registry_matches_stats(self):
        sketch = _run(XSketch(_config(), seed=7, recorder=Recorder()), _windows())
        stats = sketch.stats
        registry = sketch.metrics_registry()
        assert registry.value("xsketch_stage1_arrivals_total") == stats.stage1_arrivals
        assert registry.value("xsketch_stage1_fits_total") == stats.stage1_fits
        assert registry.value("xsketch_stage1_promotions_total") == stats.promotions
        assert registry.value("xsketch_stage2_inserts_empty_total") == stats.inserts_empty
        assert registry.value("xsketch_stage2_elections_won_total") == stats.replacements_won
        assert registry.value("xsketch_stage2_elections_lost_total") == stats.replacements_lost
        assert registry.value("xsketch_stage2_evictions_total") == stats.evictions_zero
        assert registry.value("xsketch_reports_total") == stats.reports
        assert registry.value("xsketch_windows_total") == stats.windows
        assert registry.value("xsketch_stage2_tracked_items") == stats.stage2_tracked

    def test_counters_present_without_recorder(self):
        # The null recorder skips histograms/traces, never the counters.
        sketch = _run(XSketch(_config(), seed=7), _windows(n=8))
        registry = sketch.metrics_registry()
        assert registry.value("xsketch_stage1_promotions_total") == sketch.stats.promotions
        assert registry.get("xsketch_stage1_potential") is None

    def test_collect_is_additive_across_sketches(self):
        windows = _windows(n=8)
        a = _run(XSketch(_config(), seed=1), windows)
        b = _run(XSketch(_config(), seed=2), windows)
        registry = MetricsRegistry()
        collect_xsketch(a, registry)
        collect_xsketch(b, registry)
        assert registry.value("xsketch_stage1_promotions_total") == (
            a.stats.promotions + b.stats.promotions
        )

    def test_potential_histogram_counts_fits(self):
        sketch = _run(XSketch(_config(), seed=7, recorder=Recorder()), _windows())
        histogram = sketch.metrics_registry().get("xsketch_stage1_potential")
        assert histogram.count == sketch.stats.stage1_fits

    def test_wmin_histogram_counts_full_bucket_elections(self):
        config = _config(memory_kb=6.0)
        sketch = _run(XSketch(config, seed=11, recorder=Recorder()), _windows(n=20, size=900))
        stats = sketch.stats
        elections = stats.replacements_won + stats.replacements_lost
        assert elections > 0
        histogram = sketch.metrics_registry().get("xsketch_stage2_wmin")
        assert histogram.count == elections

    def test_occupancy_histogram_samples_every_bucket_each_window(self):
        sketch = _run(XSketch(_config(), seed=7, recorder=Recorder()), _windows(n=8))
        histogram = sketch.metrics_registry().get("xsketch_stage2_bucket_occupancy")
        assert histogram.count == sketch.stage2.m * sketch.window


class TestTraceEvents:
    def test_promotions_and_stage2_lifecycle_traced(self):
        ring = TraceRing()
        sketch = _run(
            XSketch(_config(), seed=7, recorder=Recorder(trace=ring)), _windows()
        )
        stats = sketch.stats
        assert len(ring.events("stage1_promotion")) == min(stats.promotions, ring.capacity)
        assert len(ring.events("stage2_evict")) == stats.evictions_zero
        assert len(ring.events("stage2_report")) == stats.reports
        reported = ring.events("stage2_report")
        if reported:
            event = reported[0]
            assert {"item", "window", "lasting", "mse", "ts"} <= set(event)

    def test_why_was_item_reported_query(self):
        ring = TraceRing()
        sketch = _run(
            XSketch(_config(), seed=7, recorder=Recorder(trace=ring)), _windows()
        )
        reports = sketch.reports
        assert reports, "fixture stream must produce at least one report"
        item = str(reports[0].item)
        kinds = [e["kind"] for e in ring.for_item(item)]
        assert "stage1_promotion" in kinds
        assert "stage2_report" in kinds


class TestTowerOverflow:
    def test_overflow_counter_counts_saturated_increments(self):
        # A tiny Stage-1 budget saturates low tower levels quickly.
        config = _config(memory_kb=4.0)
        recorder = Recorder()
        sketch = _run(XSketch(config, seed=7, recorder=recorder), _windows(n=10, size=2000))
        assert recorder.registry.value("tower_overflow_total") > 0

    def test_saturated_counters_gauge(self):
        config = _config(memory_kb=4.0)
        sketch = _run(XSketch(config, seed=7), _windows(n=10, size=2000))
        registry = sketch.metrics_registry()
        assert registry.value("xsketch_stage1_saturated_counters") > 0
        # and the scan agrees with the gauge
        assert registry.value("xsketch_stage1_saturated_counters") == (
            sketch.stage1.filter.saturated_counters()
        )
