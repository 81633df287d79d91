"""`repro check` end to end: exit codes, formats, baseline workflow."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

from tests.checks.support import FIXTURES

REPO_ROOT = Path(__file__).resolve().parents[2]
BAD = str(FIXTURES / "det001_bad.py")
CLEAN = str(FIXTURES / "det001_clean.py")


def test_violations_exit_nonzero_with_text_findings(capsys):
    assert main(["check", BAD, "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "hint:" in out
    assert "finding(s)" in out  # summary footer


def test_clean_file_exits_zero(capsys):
    assert main(["check", CLEAN, "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_json_output_parses(capsys):
    assert main(["check", BAD, "--no-baseline", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["findings"] == len(payload["findings"])
    assert {f["rule"] for f in payload["findings"]} == {"DET001"}


def test_github_format_annotates(capsys):
    assert main(["check", BAD, "--no-baseline", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=DET001" in out


def test_select_narrows_the_run(capsys):
    assert main(["check", BAD, "--no-baseline", "--select", "DET003"]) == 0
    assert main(["check", BAD, "--no-baseline", "--select", "det001"]) == 1
    capsys.readouterr()


def test_unknown_select_is_a_clean_cli_error(capsys):
    assert main(["check", BAD, "--no-baseline", "--select", "NOPE1"]) == 1
    assert "unknown rule id" in capsys.readouterr().err


def test_list_rules_prints_the_catalog(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "IMP003", "KEY003", "WRK002"):
        assert rule_id in out


def test_write_baseline_then_rerun_is_green(tmp_path, capsys):
    baseline = tmp_path / "accepted.json"
    assert main(["check", BAD, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert baseline.exists()
    # Same violations, now grandfathered: the gate passes...
    assert main(["check", BAD, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "4 baselined" in out
    # ...but a file with violations outside the baseline still fails.
    assert main(["check", BAD, str(FIXTURES / "det002_bad.py"),
                 "--baseline", str(baseline)]) == 1


def test_stale_baseline_entries_are_noted(tmp_path, capsys):
    baseline = tmp_path / "accepted.json"
    assert main(["check", BAD, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    capsys.readouterr()
    assert main(["check", CLEAN, "--baseline", str(baseline)]) == 0
    assert "stale baseline entr" in capsys.readouterr().out


def test_repo_gate_src_repro_is_clean(monkeypatch, capsys):
    # The CI invocation: the shipped tree plus the committed (empty)
    # baseline must be green.
    monkeypatch.chdir(REPO_ROOT)
    assert main(["check", "src/repro"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


# -- SARIF, --output, --prune-baseline --------------------------------------


def test_sarif_format_via_cli(capsys):
    assert main(["check", BAD, "--no-baseline", "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    results = log["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"DET001"}


def test_output_flag_writes_the_file(capsys, tmp_path):
    target = tmp_path / "findings.sarif"
    assert main(["check", BAD, "--no-baseline", "--format", "sarif",
                 "--output", str(target)]) == 1
    out = capsys.readouterr().out
    assert "wrote sarif findings to" in out
    log = json.loads(target.read_text(encoding="utf-8"))
    assert log["runs"][0]["results"]


def test_prune_baseline_rewrites_the_file(capsys, tmp_path):
    baseline = tmp_path / "accepted.json"
    assert main(["check", BAD, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert main(["check", CLEAN, "--baseline", str(baseline),
                 "--prune-baseline"]) == 0
    out = capsys.readouterr().out
    assert "pruned 4 stale entries" in out
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["entries"] == []


def test_stale_note_lists_the_entries(capsys, tmp_path):
    baseline = tmp_path / "accepted.json"
    assert main(["check", BAD, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    capsys.readouterr()
    assert main(["check", CLEAN, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entr" in out
    assert "  stale: DET001" in out
