"""Renderers: exact text lines, parseable JSON, GitHub annotations."""

from __future__ import annotations

import json

import pytest

from repro.checks.findings import Finding
from repro.checks.reporting import (
    JSON_SCHEMA_VERSION,
    render,
    render_github,
    render_json,
    render_sarif,
    render_text,
    summarize,
)

ERROR = Finding(
    path="src/repro/a.py",
    line=12,
    col=4,
    rule_id="DET001",
    severity="error",
    message="call to global-state RNG random.random()",
    hint="seed it",
)
WARNING = Finding(
    path="src/repro/b.py",
    line=3,
    col=0,
    rule_id="OBS001",
    severity="warning",
    message="print() in library code bypasses structured logging",
    hint="log it instead",
)


def test_text_format_is_exact():
    summary = summarize(
        [ERROR, WARNING], files_scanned=2, noqa_suppressed=1, baselined=4
    )
    text = render_text([ERROR, WARNING], summary)
    assert text.splitlines() == [
        "src/repro/a.py:12:5: DET001 error: "
        "call to global-state RNG random.random()",
        "    hint: seed it",
        "src/repro/b.py:3:1: OBS001 warning: "
        "print() in library code bypasses structured logging",
        "    hint: log it instead",
        "",
        "2 finding(s) (1 error(s), 1 warning(s)) in 2 file(s); "
        "4 baselined, 1 suppressed inline",
    ]


def test_text_format_empty_run_is_just_the_footer():
    summary = summarize([], files_scanned=7)
    assert render_text([], summary).splitlines() == [
        "0 finding(s) (0 error(s), 0 warning(s)) in 7 file(s); "
        "0 baselined, 0 suppressed inline"
    ]


def test_json_format_parses_with_stable_schema():
    payload = json.loads(render_json([ERROR, WARNING]))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["summary"]["findings"] == 2
    assert payload["summary"]["errors"] == 1
    assert payload["summary"]["warnings"] == 1
    first = payload["findings"][0]
    assert first == {
        "path": "src/repro/a.py",
        "line": 12,
        "col": 4,
        "rule": "DET001",
        "severity": "error",
        "message": "call to global-state RNG random.random()",
        "hint": "seed it",
    }


def test_github_format_emits_workflow_commands():
    lines = render_github([ERROR, WARNING]).splitlines()
    assert lines[0] == (
        "::error file=src/repro/a.py,line=12,col=5,title=DET001::"
        "call to global-state RNG random.random() (hint: seed it)"
    )
    assert lines[1].startswith("::warning file=src/repro/b.py,line=3,col=1,")


def test_github_format_escapes_control_characters():
    tricky = Finding(
        path="src/repro/c.py",
        line=1,
        col=0,
        rule_id="DET002",
        severity="error",
        message="50% of\nruns drift",
    )
    (line,) = render_github([tricky]).splitlines()
    assert "50%25 of%0Aruns drift" in line
    assert "\n" not in line


def test_render_dispatches_and_rejects_unknown_format():
    assert render("github", [ERROR]) == render_github([ERROR])
    with pytest.raises(ValueError, match="unknown format"):
        render("yaml", [ERROR])


def test_sarif_format_is_valid_minimal_sarif():
    log = json.loads(render_sarif([ERROR, WARNING]))
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == ["DET001", "OBS001"]
    assert rules[0]["defaultConfiguration"]["level"] == "error"
    first, second = run["results"]
    assert first["ruleId"] == "DET001"
    assert first["ruleIndex"] == 0
    assert first["level"] == "error"
    assert first["message"]["text"] == ERROR.message
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/a.py"
    assert location["region"] == {"startLine": 12, "startColumn": 5}
    assert second["level"] == "warning"


def test_sarif_unknown_rule_degrades_gracefully():
    stray = Finding(
        path="x.py", line=1, col=0, rule_id="ZZZ999",
        severity="error", message="ghost rule",
    )
    log = json.loads(render_sarif([stray]))
    (entry,) = log["runs"][0]["tool"]["driver"]["rules"]
    assert entry == {"id": "ZZZ999"}
