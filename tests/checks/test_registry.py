"""Registry contract: catalog, selection, registration errors."""

from __future__ import annotations

import pytest

from repro.checks.registry import all_rules, get_rule, rule
from repro.errors import CheckError

from tests.checks.support import BUILTIN_RULES


def test_catalog_contains_every_builtin_rule_in_order():
    ids = [r.rule_id for r in all_rules()]
    assert ids == list(BUILTIN_RULES)


def test_every_rule_has_metadata_and_rationale():
    for a_rule in all_rules():
        assert a_rule.name
        assert a_rule.severity in ("warning", "error")
        assert a_rule.scope in ("module", "project")
        assert a_rule.hint
        if a_rule.rule_id.startswith(("DET", "IMP", "KEY", "WRK")):
            assert a_rule.doc, f"{a_rule.rule_id} has no rationale docstring"


def test_rule_finding_prefills_metadata_and_hint():
    det001 = get_rule("DET001")
    finding = det001.finding("a.py", 3, 0, "boom")
    assert finding.rule_id == "DET001"
    assert finding.severity == det001.severity
    assert finding.hint == det001.hint
    assert det001.finding("a.py", 3, 0, "boom", hint="custom").hint == "custom"


def test_get_rule_unknown_id_raises():
    with pytest.raises(CheckError, match="unknown rule id"):
        get_rule("ZZZ999")


def test_duplicate_rule_id_is_rejected():
    get_rule("DET001")  # built-ins registered
    with pytest.raises(CheckError, match="already registered"):

        @rule("DET001", name="duplicate")
        def duplicate(ctx):
            return iter(())


def test_bad_severity_and_scope_are_rejected():
    with pytest.raises(CheckError, match="severity"):
        rule("TST998", name="bad", severity="fatal")
    with pytest.raises(CheckError, match="scope"):
        rule("TST999", name="bad", scope="galaxy")
