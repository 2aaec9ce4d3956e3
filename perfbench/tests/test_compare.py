import json

import pytest

from xbench.compare import compare, load_runs, main
from xbench.stats import verdict

PARENT = [0.200, 0.204, 0.198, 0.201, 0.203, 0.199, 0.202, 0.200, 0.197, 0.205]


def test_thirty_percent_slowdown_is_worse():
    change = [v * 0.7 for v in PARENT]
    assert verdict(PARENT, change, "higher", 0.1) == "worse"
    latency = [1 / v for v in PARENT]
    slower = [1 / v for v in change]
    assert verdict(latency, slower, "lower", 0.1) == "worse"


def test_gain_within_noise_is_no_worse_not_improved():
    change = [v * 1.002 for v in PARENT]
    assert verdict(PARENT, change, "higher", 0.1) == "no worse"


def test_consistent_gain_beyond_spread_is_improved():
    change = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, change, "higher", 0.1) == "improved"


def test_noisy_parent_is_unresolved():
    noisy = [0.1, 0.3, 0.1, 0.3, 0.2, 0.1, 0.3, 0.2, 0.1, 0.3]
    change = [v * 0.95 for v in noisy]
    assert verdict(noisy, change, "higher", 0.1) == "unresolved"


def test_per_layer_metrics_never_worse():
    change = [v * 0.7 for v in PARENT]
    assert verdict(PARENT, change, "higher", None) == "unresolved"


def _write(path, values, metric="ingest_mops", correct=True):
    with open(path, "w") as handle:
        for seed, value in enumerate(values):
            handle.write(json.dumps({
                "workload": "ingest-zipf", "seed": seed, "trace": 0,
                "correct": correct, "attempted": 1, "failed": 0,
                "metrics": {metric: {"value": value, "unit": "Mops"}},
            }) + "\n")


@pytest.fixture
def spec_file(tmp_path):
    spec = {
        "end_to_end": [{"name": "ingest_mops", "unit": "Mops",
                        "better": "higher", "bound": 0.1}],
        "per_layer": [],
    }
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(spec))
    return path


def test_compare_mode_gates_an_injected_slowdown(tmp_path, spec_file, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write(parent, PARENT)
    _write(change, [v * 0.7 for v in PARENT])
    assert main([str(parent), str(change)], spec_file) == 1
    assert "worse" in capsys.readouterr().out
    _write(change, PARENT[::-1])
    assert main([str(parent), str(change)], spec_file) == 0


def test_failed_runs_are_excluded_and_fail_the_gate(tmp_path, spec_file):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write(parent, PARENT)
    _write(change, PARENT, correct=False)
    values, failed = load_runs(str(change))
    assert failed == len(PARENT) and not values
    assert main([str(parent), str(change)], spec_file) == 1


def test_compare_rows_carry_quartiles(tmp_path, spec_file):
    parent, _ = load_runs(str(_path(tmp_path, "p.jsonl", PARENT)))
    change, _ = load_runs(str(_path(tmp_path, "c.jsonl", PARENT)))
    rows = compare(parent, change, json.loads(spec_file.read_text()))
    assert [r["metric"] for r in rows] == ["ingest_mops"]
    assert rows[0]["parent"]["q1"] <= rows[0]["parent"]["median"] <= rows[0]["parent"]["q3"]


def _path(tmp_path, name, values):
    path = tmp_path / name
    _write(path, values)
    return path
