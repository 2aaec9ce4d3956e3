"""Shared benchmark configuration.

Every bench reproduces one figure or table of the paper: it runs the
corresponding experiment from :mod:`repro.experiments.figures` (timed by
pytest-benchmark, one round -- the experiment itself is the workload) and
prints the paper-shaped rows/series so the output can be compared with
the original curves.  EXPERIMENTS.md records the comparison.

Geometry note: benches default to scaled-down streams (see
``repro/experiments/params.py``); memory points carry the paper's labels
with budgets scaled by ``MEMORY_SCALE``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.config import StreamGeometry

#: Repository root; extension benches drop their machine-readable
#: ``BENCH_*.json`` result files here.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Geometry of the parameter-sweep benches (Figures 3-9).  Calibrated so
#: the paper's 150-350 KB label range (scaled by MEMORY_SCALE) spans the
#: same accuracy knee the paper's figures show.
SWEEP_GEOMETRY = StreamGeometry(n_windows=40, window_size=2000)

#: Geometry of the dataset-comparison benches (Figures 10-24).
DATASET_GEOMETRY = StreamGeometry(n_windows=40, window_size=2000)

#: Seed shared by all benches for reproducibility.
BENCH_SEED = 20230401


@pytest.fixture()
def show(capsys):
    """Print experiment tables to the real terminal (not captured)."""

    def _show(*renderables):
        with capsys.disabled():
            print()
            for renderable in renderables:
                print(renderable if isinstance(renderable, str) else renderable.render())
                print()

    return _show


def run_once(benchmark, fn):
    """Time ``fn`` with a single benchmark round (the experiment IS the
    workload; repeating a multi-minute grid would be wasteful)."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def write_bench_json(filename: str, params: dict, results) -> Path:
    """Write one machine-readable bench result to the repository root.

    Uniform schema across the ``BENCH_*.json`` files: ``run_date``
    (ISO 8601, local time), ``params`` (the knobs that shaped the run,
    plus the machine's ``cpu_count``) and ``results`` (whatever the
    bench measured — Mops, percentiles, overhead ratios).  Values must
    already be JSON-safe.
    """
    path = REPO_ROOT / filename
    payload = {
        "run_date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": {**params, "cpu_count": os.cpu_count()},
        "results": results,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
