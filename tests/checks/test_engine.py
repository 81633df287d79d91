"""Engine behavior: suppression, selection, collection, ordering."""

from __future__ import annotations

import pytest

from repro.checks.engine import collect_files, run_checks
from repro.errors import CheckError

from tests.checks.support import (
    BUILTIN_RULES,
    FIXTURES,
    check,
    expected_markers,
    observed,
)


def test_noqa_suppresses_targeted_and_bare():
    report = check(FIXTURES / "noqa_suppressed.py")
    assert report.findings == []
    # One DET001 behind `# repro: noqa[DET001]`, one DET002 behind a
    # bare `# repro: noqa` — both counted, neither reported.
    assert report.noqa_suppressed == 2


def test_noqa_for_a_different_rule_does_not_suppress():
    path = FIXTURES / "noqa_mismatch.py"
    report = check(path)
    assert [(f.rule_id, f.line) for f in report.findings] == [("DET001", 7)]
    assert report.noqa_suppressed == 0


def test_select_restricts_to_the_named_rules():
    # det001_bad violates DET001 only; selecting DET003 must see nothing.
    report = check(FIXTURES / "det001_bad.py", select=["DET003"])
    assert report.findings == []
    assert report.rules_run == ["DET003"]


def test_select_unknown_rule_id_raises():
    with pytest.raises(CheckError, match="unknown rule id"):
        run_checks([FIXTURES / "det001_bad.py"], select=["NOPE999"])


def test_missing_path_raises():
    with pytest.raises(CheckError, match="does not exist"):
        run_checks([FIXTURES / "no_such_file.py"])


def test_collect_files_skips_pycache_and_hidden(tmp_path):
    (tmp_path / "keep.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "skip.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "skip.py").write_text("x = 1\n")
    files = collect_files([tmp_path])
    assert [f.name for f in files] == ["keep.py"]


def test_explicit_file_argument_is_taken_as_is(tmp_path):
    hidden = tmp_path / ".hidden"
    hidden.mkdir()
    target = hidden / "direct.py"
    target.write_text("x = 1\n")
    assert [f.name for f in collect_files([target])] == ["direct.py"]


def test_findings_are_sorted_and_report_counts_agree():
    report = check(FIXTURES)
    assert report.findings == sorted(report.findings)
    assert report.errors + report.warnings == len(report.findings)
    assert report.files_scanned == len(list(FIXTURES.rglob("*.py")))


def test_whole_fixture_tree_matches_every_marker():
    # The master assertion: across all fixtures at once — project rules
    # seeing every module together — findings are exactly the markers.
    report = check(FIXTURES)
    assert observed(report) == expected_markers(FIXTURES)
    assert sorted(report.rules_run) == sorted(BUILTIN_RULES)
