import pytest

from xbench.drive import Lateness, Subscriber, open_loop_schedule


def test_schedule_dues_follow_offered_items():
    plan = open_loop_schedule([1000, 600], rate=1000.0, t0=5.0, batch=512)
    assert [(w, n) for _, w, n in plan] == [(0, 512), (0, 488), (1, 512), (1, 88)]
    assert [due for due, _, _ in plan] == pytest.approx([5.0, 5.512, 6.0, 6.512])


def test_lateness_counts_only_late_sends():
    late = Lateness()
    late.record(due=1.0, sent=0.99)   # early: the loop slept, counts 0
    late.record(due=2.0, sent=2.004)
    late.record(due=3.0, sent=3.2)
    summary = late.summary()
    assert summary["n"] == 3
    assert summary["max_ms"] == pytest.approx(200.0)
    assert late.samples[0] == 0.0


def test_generator_behind_uses_p99():
    late = Lateness()
    for i in range(200):
        late.record(due=float(i), sent=float(i) + 0.001)
    late.record(due=500.0, sent=500.3)  # one stall is in the top 1 %
    assert not late.behind(limit=0.05)
    for i in range(10):
        late.record(due=600.0 + i, sent=600.0 + i + 0.3)
    assert late.behind(limit=0.05)


def test_report_latency_is_measured_from_the_due_time():
    sub = Subscriber.__new__(Subscriber)
    sub.snapshot_seq = 0
    # DELTA seq 1 closes window 0 (frame window 1), and so on
    sub.deltas = [(1, 1, 10.05, 100), (2, 2, 10.30, 100), (4, 3, 10.60, 100)]
    latencies = sub.report_latencies([10.0, 10.2, 10.5])
    assert latencies == pytest.approx([0.05, 0.10, 0.10])
    assert sub.gaps() == 1


def test_drain_estimate_waits_for_a_full_rate_span():
    from xbench.drive import drain_estimate

    assert drain_estimate([], 1000) == 0.0
    # 0.5 s of polls is start-up, not a rate
    assert drain_estimate([(0.0, 0), (0.5, 50_000)], 1_000_000) == 0.0
    progress = [(0.0, 0), (0.5, 50_000), (1.0, 150_000), (1.5, 250_000)]
    # last second: 200k items/s; 750k left -> 3.75 s
    assert drain_estimate(progress, 1_000_000) == pytest.approx(3.75)


def test_progress_slices_are_back_to_back_and_at_least_a_second():
    from xbench.drive import Progress

    progress = Progress("127.0.0.1", 0, cpu_sample=dict)
    progress.records = [
        (0.0, 0, {1: 0.0}, (0, 0)), (0.6, 60, {1: 0.5}, (1, 100)),
        (1.1, 100, {1: 1.0}, (2, 200)), (1.5, 150, {1: 1.2}, (10, 300)),
        (2.2, 220, {1: 2.0, 2: 0.5}, (52, 400)), (2.5, 250, {1: 2.1}, (60, 500)),
    ]
    assert progress.slices() == pytest.approx(
        [(1.1, 100, 1.0, 0.01), (1.1, 120, 1.5, 0.25)])
