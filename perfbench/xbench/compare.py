"""Compare mode: parent runs against change runs, per metric and workload.

Input is two JSONL files of result lines as ``run.py --record`` writes
them (the result object plus ``workload``, ``seed`` and ``trace``).
For every workload and metric the table gives each side's median and
quartiles and a verdict from :func:`xbench.stats.verdict`; runs pair
up by their order in the files.  End-to-end metrics use the bound
BENCHMARK.json fixes; per-layer metrics have none and are never
``worse``.  The exit status is 1 when any end-to-end metric is
``worse`` or any change run failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from xbench.stats import summarize, verdict


def load_runs(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], int]:
    """``{(workload, metric): [values in file order]}`` and the failed-run count."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    failed = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if not record.get("correct"):
            failed += 1
            continue
        for metric, entry in record["metrics"].items():
            values[(record["workload"], metric)].append(float(entry["value"]))
    return values, failed


def compare(parent: Dict, change: Dict, spec: dict) -> List[dict]:
    """One row per (workload, metric) present on both sides."""
    kinds = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    kinds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in kinds:
            continue
        better, bound = kinds[metric]
        rows.append({
            "workload": workload,
            "metric": metric,
            "end_to_end": bound is not None,
            "parent": summarize(parent[key]),
            "change": summarize(change[key]),
            "verdict": verdict(parent[key], change[key], better, bound),
        })
    return rows


def _fmt(side: dict) -> str:
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}] n={side['n']}"


def main(argv: List[str], benchmark_json: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", help="JSONL of parent results")
    parser.add_argument("change", help="JSONL of change results")
    args = parser.parse_args(argv)
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    parent, parent_failed = load_runs(args.parent)
    change, change_failed = load_runs(args.change)
    rows = compare(parent, change, spec)
    print(f"{'workload':<16} {'metric':<36} {'parent median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} verdict")
    for row in rows:
        print(f"{row['workload']:<16} {row['metric']:<36} {_fmt(row['parent']):<38} "
              f"{_fmt(row['change']):<38} {row['verdict']}")
    print(f"failed runs: parent {parent_failed}, change {change_failed}")
    worse = [r for r in rows if r["end_to_end"] and r["verdict"] == "worse"]
    return 1 if worse or change_failed else 0
