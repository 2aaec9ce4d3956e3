"""Order statistics and the steal fit the benchmark reports, and the
parent/change verdicts.

Percentiles are nearest-rank (the smallest sample with at least ``q``
percent of the samples at or below it), so every reported value is a
sample that was actually measured.  A percentile is *supported* only
when at least :data:`MIN_TAIL` samples lie beyond it; the benchmark
refuses to report an unsupported one rather than quote a tail made of
one or two samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: samples that must lie beyond a percentile for it to be reported
MIN_TAIL = 10

#: the percentile ladder :func:`highest_supported_percentile` climbs
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples`` (0 < q <= 100)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports(n_samples: int, q: float) -> bool:
    """True when ``n_samples`` leave at least MIN_TAIL samples beyond ``q``."""
    return n_samples * (100.0 - q) / 100.0 >= MIN_TAIL - 1e-9


def highest_supported_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile ``n_samples`` support, or None."""
    best = None
    for q in PERCENTILE_LADDER:
        if supports(n_samples, q):
            best = q
    return best


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q = quartiles(values)
    if q["median"] == 0:
        return math.inf
    return (q["q3"] - q["q1"]) / abs(q["median"])


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: Optional[float]) -> str:
    """Classify a change against its parent for one metric and workload.

    ``improved``: the change wins at least nine tenths of the index-paired
    runs (ties count for neither) and the medians differ by more than the
    parent's own interquartile distance.  Otherwise, when the parent's
    relative spread exceeds ``bound`` the metric is ``unresolved`` --
    unless every change run beats every parent run (``no worse``).
    Otherwise the change is ``worse`` when its median is worse than the
    parent's by more than ``bound`` of the parent median, else
    ``no worse``.  ``bound=None`` (per-layer metrics) never says worse.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q, c_q = quartiles(parent), quartiles(change)
    parent_iqr = p_q["q3"] - p_q["q1"]
    gain = sign * (c_q["median"] - p_q["median"])
    if pairs and wins >= 0.9 * len(pairs) and gain > parent_iqr:
        return "improved"
    if bound is None:
        return "no worse" if gain >= 0 else "unresolved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if relative_spread(parent) > bound:
        return "no worse" if all_better else "unresolved"
    if -gain > bound * abs(p_q["median"]):
        return "worse"
    return "no worse"


def zero_steal_rate(slices: Sequence[Sequence[float]]) -> float:
    """Rate at no host steal, fitted over back-to-back progress slices.

    ``slices`` holds ``(seconds, items, cpu seconds, steal share)`` per
    slice.  Each slice's rate is fitted by least squares on its steal
    share and its mid time; the figure is the fit at zero steal and the
    run's mean time, ``mean rate - b * mean steal``, where ``b`` is the
    rate's slope on steal with time held fixed (the time term absorbs a
    service that slows down as it runs).  With no spread in steal, it is
    the mean rate.
    """
    if len(slices) < 3:
        raise ValueError("a rate fit needs at least three slices")
    times, rates, steals = [], [], []
    elapsed = 0.0
    for seconds, items, _, steal in slices:
        times.append(elapsed + seconds / 2)
        rates.append(items / seconds)
        steals.append(steal)
        elapsed += seconds

    def residuals(values: List[float]) -> List[float]:
        """``values`` minus their least-squares line in time."""
        slope, intercept = statistics.linear_regression(times, values)
        return [v - (intercept + slope * t) for v, t in zip(values, times)]

    rate_rest, steal_rest = residuals(rates), residuals(steals)
    spread = sum(r * r for r in steal_rest)
    slope = (sum(a * b for a, b in zip(rate_rest, steal_rest)) / spread
             if spread > 1e-12 else 0.0)
    return statistics.fmean(rates) - slope * statistics.fmean(steals)


def summarize(values: List[float]) -> Dict[str, float]:
    """Quartiles plus the relative spread, for the compare table."""
    out = quartiles(values)
    out["spread"] = relative_spread(values)
    out["n"] = len(values)
    return out
