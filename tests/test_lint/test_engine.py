"""Engine-level tests: suppressions, baseline, selection, rendering, CLI.

The fixture tests pin each rule's behaviour; these pin the machinery
around the rules — the parts that decide whether a finding is shown,
hidden, grandfathered, or fails the build.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Finding, LintEngine, Severity, lint_source, run_lint
from repro.lint.engine import (
    load_baseline,
    render_github,
    render_json,
    render_text,
)
from repro.lint.findings import BaselineKey
from repro.lint.registry import get_rule, select_rules

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the trees the CI lint job checks
REPO_LINT_PATHS = ("src", "tests", "benchmarks", "examples")

_ASSERT_SNIPPET = "def check(x):\n    assert x > 0\n"


@pytest.fixture(scope="module")
def repo_lint():
    """One whole-repo lint run, shared by the tests that inspect it."""
    engine = LintEngine(root=REPO_ROOT)
    findings = engine.run([REPO_ROOT / part for part in REPO_LINT_PATHS])
    return engine, findings


def _write_module(directory: Path, name: str, source: str) -> Path:
    path = directory / name
    path.write_text(source, encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# suppressions


def test_same_line_suppression_hides_finding():
    flagged = lint_source(
        _ASSERT_SNIPPET, module_name="repro.core.example", enable=["assert-stmt"]
    )
    assert [f.rule for f in flagged] == ["assert-stmt"]
    suppressed = lint_source(
        "def check(x):\n"
        "    assert x > 0  # lint: ignore[assert-stmt]\n",
        module_name="repro.core.example",
        enable=["assert-stmt"],
    )
    assert suppressed == []


def test_suppression_is_rule_specific():
    findings = lint_source(
        "def check(x):\n"
        "    assert x > 0  # lint: ignore[broad-except]\n",
        module_name="repro.core.example",
        enable=["assert-stmt"],
    )
    assert [f.rule for f in findings] == ["assert-stmt"]


def test_suppression_accepts_multiple_rules():
    findings = lint_source(
        "def check(x):\n"
        "    assert x  # lint: ignore[assert-stmt, broad-except]\n",
        module_name="repro.core.example",
        enable=["assert-stmt"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# baseline


def test_baseline_hides_matching_finding(tmp_path):
    # The module has to land inside a src-scoped dotted path for the
    # rule to apply, so lay out a src/ tree under tmp_path.
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    module = _write_module(src, "victim.py", _ASSERT_SNIPPET)
    baseline = _write_module(
        tmp_path,
        "baseline.txt",
        "assert-stmt src/repro/core/victim.py::check  # justified\n",
    )
    engine = LintEngine(
        root=tmp_path, enable=["assert-stmt"], baseline_path=baseline
    )
    findings = engine.run([module])
    assert findings == []
    assert [f.rule for f in engine.baselined] == ["assert-stmt"]
    assert engine.stale_baseline == []


def test_stale_baseline_entry_is_reported(tmp_path):
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    module = _write_module(src, "clean.py", "X = 1\n")
    baseline = _write_module(
        tmp_path,
        "baseline.txt",
        "assert-stmt src/repro/core/clean.py::check  # fixed long ago\n",
    )
    engine = LintEngine(
        root=tmp_path, enable=["assert-stmt"], baseline_path=baseline
    )
    findings = engine.run([module])
    assert findings == []
    assert engine.stale_baseline == [
        BaselineKey("assert-stmt", "src/repro/core/clean.py", "check")
    ]
    report = render_text(findings, engine)
    assert "stale baseline entry" in report


def test_stale_baseline_fails_strict(tmp_path):
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    _write_module(src, "clean.py", "X = 1\n")
    _write_module(
        tmp_path,
        "lint-baseline.txt",
        "assert-stmt src/repro/core/clean.py::check  # gone\n",
    )
    code, _ = run_lint([str(tmp_path / "src")], root=tmp_path, strict=True)
    assert code == 1
    code, _ = run_lint([str(tmp_path / "src")], root=tmp_path, strict=False)
    assert code == 0


def test_load_baseline_parses_reasons_and_skips_junk(tmp_path):
    path = _write_module(
        tmp_path,
        "baseline.txt",
        "# a comment line\n"
        "\n"
        "not-a-valid-entry\n"
        "assert-stmt src/x.py::f  # the reason\n",
    )
    entries = load_baseline(path)
    assert entries == {
        BaselineKey("assert-stmt", "src/x.py", "f"): "the reason"
    }


def test_repo_baseline_entries_all_carry_reasons():
    entries = load_baseline(REPO_ROOT / "lint-baseline.txt")
    assert entries, "repo baseline should exist"
    for key, reason in entries.items():
        assert reason, f"baseline entry {key.render()} has no inline reason"


# ----------------------------------------------------------------------
# parse errors and selection


def test_syntax_error_fails_even_without_strict(tmp_path):
    _write_module(tmp_path, "broken.py", "def oops(:\n")
    code, report = run_lint([str(tmp_path)], root=tmp_path, strict=False)
    assert code == 1
    assert "syntax error" in report


def test_non_utf8_file_reports_clean_diagnostic(tmp_path):
    path = tmp_path / "latin.py"
    path.write_bytes(b"# caf\xe9\nX = 1\n")
    engine = LintEngine(root=tmp_path, enable=["assert-stmt"])
    findings = engine.run([path])
    assert findings == []
    assert len(engine.errors) == 1
    assert "not UTF-8" in engine.errors[0]
    code, report = run_lint([str(path)], root=tmp_path, strict=False)
    assert code == 1  # unparseable files always fail, like syntax errors
    assert "not UTF-8" in report


def test_null_byte_file_reports_clean_diagnostic(tmp_path):
    path = tmp_path / "nulls.py"
    path.write_bytes(b"X = 1\x00\n")
    engine = LintEngine(root=tmp_path, enable=["assert-stmt"])
    findings = engine.run([path])
    assert findings == []
    assert len(engine.errors) == 1
    # SyntaxError on current CPython, bare ValueError on older ones —
    # either way a one-line diagnostic, never a traceback
    assert engine.errors[0].startswith("nulls.py")
    assert "null bytes" in engine.errors[0]


def test_empty_module_lints_clean(tmp_path):
    _write_module(tmp_path, "empty.py", "")
    code, report = run_lint([str(tmp_path)], root=tmp_path, strict=True)
    assert code == 0, report


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError, match="unknown rule"):
        select_rules(enable=["no-such-rule"])
    with pytest.raises(KeyError, match="unknown rule"):
        select_rules(disable=["no-such-rule"])


def test_disable_drops_rule():
    chosen = select_rules(disable=["assert-stmt"])
    assert get_rule("assert-stmt") not in chosen
    assert get_rule("broad-except") in chosen


# ----------------------------------------------------------------------
# rendering


def test_render_json_shape():
    findings = [
        Finding(
            path="src/x.py",
            line=3,
            rule="assert-stmt",
            message="msg",
            severity=Severity.ERROR,
            symbol="f",
        )
    ]
    payload = json.loads(render_json(findings))
    assert payload["summary"]["total"] == 1
    assert payload["summary"]["errors"] == 1
    assert payload["summary"]["warnings"] == 0
    (entry,) = payload["findings"]
    assert entry["path"] == "src/x.py"
    assert entry["line"] == 3
    assert entry["rule"] == "assert-stmt"
    assert entry["severity"] == "error"


def test_render_text_summary_line():
    report = render_text([])
    assert report.splitlines()[-1] == "0 finding(s): 0 error(s), 0 warning(s)"


def test_render_github_annotation_shape():
    findings = [
        Finding(
            path="src/x.py",
            line=3,
            col=7,
            rule="assert-stmt",
            message="first line\nsecond % line",
            severity=Severity.ERROR,
            symbol="f",
        ),
        Finding(
            path="src/y.py",
            line=9,
            rule="missing-slots",
            message="warn msg",
            severity=Severity.WARNING,
            symbol="C",
        ),
    ]
    lines = render_github(findings).splitlines()
    assert lines[0] == (
        "::error file=src/x.py,line=3,col=7,"
        "title=lint [assert-stmt]::first line%0Asecond %25 line"
    )
    assert lines[1].startswith("::warning file=src/y.py,line=9,")
    assert lines[-1] == "2 finding(s) annotated"


def test_render_github_reports_parse_errors_and_stale_entries(tmp_path):
    _write_module(tmp_path, "broken.py", "def oops(:\n")
    code, report = run_lint(
        [str(tmp_path)], root=tmp_path, strict=False, output_format="github"
    )
    assert code == 1
    assert report.splitlines()[0].startswith("::error title=lint::")


def test_cli_lint_github_format(repo_lint):
    engine, findings = repo_lint
    out = render_github(findings, engine)
    assert not (findings or engine.errors or engine.stale_baseline), out
    assert "::error" not in out


def test_repo_baseline_has_no_stale_entries(repo_lint):
    """The baseline may only shrink: every entry must still match a
    live finding on today's tree (delete entries whose finding is
    fixed — run ``repro lint --strict`` to see which)."""
    engine, _ = repo_lint
    assert engine.errors == []
    assert engine.stale_baseline == []


# ----------------------------------------------------------------------
# CLI


def test_cli_lint_strict_clean_repo_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["lint", "--strict", *REPO_LINT_PATHS])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 error(s)" in out


def test_cli_lint_json_format(repo_lint):
    engine, findings = repo_lint
    out = render_json(findings, engine)
    assert not (findings or engine.errors or engine.stale_baseline), out
    payload = json.loads(out)
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["stale_baseline"] == []


def test_cli_lint_rules_listing(capsys):
    code = main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert code == 0
    assert "assert-stmt" in out
    assert "mergeable-protocol" in out


def test_cli_lint_strict_fails_on_finding(tmp_path, capsys):
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    _write_module(src, "dirty.py", _ASSERT_SNIPPET)
    code = main(
        ["lint", "--strict", "--root", str(tmp_path), str(src / "dirty.py")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[assert-stmt]" in out
    # Without --strict the same findings report but do not fail.
    code = main(["lint", "--root", str(tmp_path), str(src / "dirty.py")])
    assert code == 0
