"""`repro check` end to end: exit codes, formats, outputs."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

from tests.checks.support import FIXTURES

REPO_ROOT = Path(__file__).resolve().parents[2]
BAD = str(FIXTURES / "det001_bad.py")
CLEAN = str(FIXTURES / "det001_clean.py")


def test_violations_exit_nonzero_with_text_findings(capsys):
    assert main(["check", BAD]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "hint:" in out
    assert "finding(s)" in out  # summary footer


def test_clean_file_exits_zero(capsys):
    assert main(["check", CLEAN]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_json_output_parses(capsys):
    assert main(["check", BAD, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["findings"] == len(payload["findings"])
    assert {f["rule"] for f in payload["findings"]} == {"DET001"}


def test_github_format_annotates(capsys):
    assert main(["check", BAD, "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=DET001" in out


def test_select_narrows_the_run(capsys):
    assert main(["check", BAD, "--select", "DET003"]) == 0
    assert main(["check", BAD, "--select", "det001"]) == 1
    capsys.readouterr()


def test_unknown_select_is_a_clean_cli_error(capsys):
    assert main(["check", BAD, "--select", "NOPE1"]) == 1
    assert "unknown rule id" in capsys.readouterr().err


def test_list_rules_prints_the_catalog(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "IMP003", "KEY003", "WRK002"):
        assert rule_id in out


def test_repo_gate_src_repro_is_clean(monkeypatch, capsys):
    # The CI invocation: the shipped tree must be green.
    monkeypatch.chdir(REPO_ROOT)
    assert main(["check", "src/repro"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


# -- SARIF, --output -----------------------------------------------------


def test_sarif_format_via_cli(capsys):
    assert main(["check", BAD, "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    results = log["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"DET001"}


def test_output_flag_writes_the_file(capsys, tmp_path):
    target = tmp_path / "findings.sarif"
    assert main(["check", BAD, "--format", "sarif",
                 "--output", str(target)]) == 1
    out = capsys.readouterr().out
    assert "wrote sarif findings to" in out
    log = json.loads(target.read_text(encoding="utf-8"))
    assert log["runs"][0]["results"]
