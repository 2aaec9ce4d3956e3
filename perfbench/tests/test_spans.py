import asyncio
import time

import pytest

from xbench.spans import SpanRecorder, attribute, total_duration


def span(name, start, end, span_id, parent=None, items=0):
    return (name, start, end, span_id, parent, items)


def test_nested_self_time_excludes_children():
    spans = [span("outer", 0, 10, 1), span("inner", 2, 5, 2, parent=1)]
    table = attribute(spans, 0, 10)
    assert table["self"] == pytest.approx({"outer": 7.0, "inner": 3.0})
    assert table["residual"] == 0.0


def test_concurrent_roots_and_thread_child_sum_to_wall():
    # submit hands work to a thread (child "ingest") while another task
    # decodes the next frame: deepest wins, then the latest started.
    spans = [
        span("submit", 0, 10, 1),
        span("ingest", 1, 4, 2, parent=1),
        span("decode", 3, 6, 3),
    ]
    table = attribute(spans, 0, 12)
    assert table["self"] == pytest.approx(
        {"submit": 5.0, "ingest": 3.0, "decode": 2.0})
    assert table["residual"] == pytest.approx(2.0)
    assert sum(table["self"].values()) + table["residual"] == pytest.approx(12.0)


def test_spans_are_clipped_to_the_interval():
    spans = [span("a", -5, 3, 1), span("b", 8, 20, 2), span("c", 30, 40, 3)]
    table = attribute(spans, 0, 10)
    assert table["self"] == pytest.approx({"a": 3.0, "b": 2.0})
    assert table["residual"] == pytest.approx(5.0)
    assert "c" not in table["calls"]
    assert total_duration(spans, "b", 0, 10) == (pytest.approx(2.0), 1)


def test_recorder_parents_follow_to_thread_and_nesting():
    rec = SpanRecorder()

    def leaf(items):
        time.sleep(0.002)
        return len(items)

    wrapped_leaf = rec.wrap(leaf, "leaf", items=lambda a, k, r: r)

    def middle(items):
        return wrapped_leaf(items)

    wrapped_middle = rec.wrap(middle, "middle")

    async def submit(items):
        return await asyncio.to_thread(wrapped_middle, items)

    wrapped_submit = rec.wrap(submit, "submit", items=lambda a, k, r: len(a[0]))

    async def main():
        await asyncio.gather(wrapped_submit([1, 2, 3]), wrapped_submit([4]))

    asyncio.run(main())
    by_id = {s[3]: s for s in rec.spans}
    names = sorted(s[0] for s in rec.spans)
    assert names == ["leaf", "leaf", "middle", "middle", "submit", "submit"]
    for s in rec.spans:
        if s[0] == "leaf":
            assert by_id[s[4]][0] == "middle"
            assert by_id[by_id[s[4]][4]][0] == "submit"
        if s[0] == "submit":
            assert s[4] is None
    assert sorted(s[5] for s in rec.spans if s[0] == "leaf") == [1, 3]
    t0 = min(s[1] for s in rec.spans)
    t1 = max(s[2] for s in rec.spans)
    table = attribute(rec.spans, t0, t1)
    assert sum(table["self"].values()) + table["residual"] == pytest.approx(t1 - t0)
    assert table["self"]["leaf"] > table["self"].get("middle", 0.0)


def test_recorder_records_failing_calls():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, "boom")()
    assert [s[0] for s in rec.spans] == ["boom"]
