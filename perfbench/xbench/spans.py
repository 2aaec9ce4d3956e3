"""In-memory spans around public callables, and their self-time table.

A :class:`SpanRecorder` wraps a function or method so each call records
``(name, start, end, span_id, parent_id, items)``.  The parent is read
from a :class:`contextvars.ContextVar`, which asyncio copies into every
task and into ``asyncio.to_thread`` workers, so a call made from a
thread the event loop handed work to still hangs under the coroutine
that handed it over.  Spans stay in a list until :meth:`dump`.

:func:`attribute` turns spans into a table that sums to wall clock:
every instant of ``[t0, t1]`` is charged to exactly one span -- the
deepest one active then, ties going to the one started last (so of two
concurrent coroutines the one that most recently took over the loop is
charged) -- or to the residual when none is active.  A span's *self
time* is what it was charged.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: one recorded call: name, start, end, span id, parent id (or None), items
Span = Tuple[str, float, float, int, Optional[int], int]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "xbench_span", default=None
)


class SpanRecorder:
    """Collects spans from wrapped callables (thread- and task-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def _open(self):
        span_id = next(self._ids)
        parent = _CURRENT.get()
        return span_id, parent, _CURRENT.set(span_id)

    def wrap(self, fn: Callable, name: str,
             items: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``items(args, kwargs, result)`` gives the call's item count
        (default 0).
        """
        record = self.spans.append

        def count(args, kwargs, result) -> int:
            return items(args, kwargs, result) if items is not None else 0

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent, token = self._open()
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    record((name, start, end, span_id, parent,
                            count(args, kwargs, result)))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, token = self._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                record((name, start, end, span_id, parent,
                        count(args, kwargs, result)))
        return wrapper

    def patch(self, owner, attr: str, name: str,
              items: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or module) with its wrapped form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, items))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def _depths(spans: Sequence[Span]) -> Dict[int, int]:
    parent_of = {span[3]: span[4] for span in spans}
    depth: Dict[int, int] = {}
    for span_id in parent_of:
        chain = []
        node = span_id
        while node is not None and node not in depth and node in parent_of:
            chain.append(node)
            node = parent_of[node]
        base = depth.get(node, -1) if node is not None else -1
        for offset, member in enumerate(reversed(chain)):
            depth[member] = base + 1 + offset
    return depth


def attribute(spans: Iterable[Span], t0: float, t1: float) -> Dict[str, object]:
    """Charge every instant of ``[t0, t1]`` to one span name or the residual.

    Returns ``{"self": {name: seconds}, "calls": {name: n}, "items":
    {name: n}, "residual": seconds, "wall": t1 - t0}``; the self times
    plus the residual equal the wall clock.  Calls and items count the
    spans that overlap the interval.
    """
    spans = [s for s in spans if s[2] > t0 and s[1] < t1]
    depth = _depths(spans)
    events = []
    calls: Dict[str, int] = defaultdict(int)
    items: Dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        start, end = max(span[1], t0), min(span[2], t1)
        calls[span[0]] += 1
        items[span[0]] += span[5]
        if end <= start:
            continue
        key = (depth.get(span[3], 0), span[1], span[3])
        events.append((start, 1, index, key))
        events.append((end, 0, index, key))
    events.sort(key=lambda e: (e[0], e[1]))
    charged: Dict[str, float] = defaultdict(float)
    active: Dict[int, tuple] = {}
    residual = 0.0
    cursor = t0
    for when, opening, index, key in events:
        if when > cursor:
            if active:
                owner = max(active, key=active.__getitem__)
                charged[spans[owner][0]] += when - cursor
            else:
                residual += when - cursor
            cursor = when
        if opening:
            active[index] = key
        else:
            active.pop(index, None)
    if t1 > cursor:
        residual += t1 - cursor
    return {
        "self": dict(charged),
        "calls": dict(calls),
        "items": dict(items),
        "residual": residual,
        "wall": t1 - t0,
    }


def total_duration(spans: Iterable[Span], name: str, t0: float,
                   t1: float) -> Tuple[float, int]:
    """Summed inclusive duration and count of ``name`` spans in ``[t0, t1]``."""
    total, n = 0.0, 0
    for span in spans:
        if span[0] == name and span[2] > t0 and span[1] < t1:
            total += min(span[2], t1) - max(span[1], t0)
            n += 1
    return total, n
