"""IMP rule family: syntax errors and import cycles."""

from __future__ import annotations

from tests.checks.support import (
    FIXTURES,
    assert_matches_markers,
    check,
    observed,
)


def test_syntax_error_becomes_a_structured_imp000_finding():
    path = FIXTURES / "imp000_bad.py"
    report = check(path)
    assert_matches_markers(report, path)
    (finding,) = report.findings
    assert finding.rule_id == "IMP000"
    assert finding.message.startswith("syntax error:")


def test_syntax_error_skipped_when_imp000_not_selected():
    report = check(FIXTURES / "imp000_bad.py", select=["IMP003"])
    assert report.findings == []


def test_imp003_reports_the_cycle_once_at_the_anchor_import():
    path = FIXTURES / "cycpkg"
    report = check(path)
    assert_matches_markers(report, path)
    (finding,) = report.findings
    assert finding.rule_id == "IMP003"
    assert finding.message == "import cycle among: cycpkg.alpha, cycpkg.beta"
    assert finding.path.endswith("cycpkg/alpha.py")


def test_imp003_acyclic_twin_is_clean():
    assert observed(check(FIXTURES / "acyclic")) == []
