"""DET rule family: fixtures match their inline markers exactly."""

from __future__ import annotations

import pytest

from tests.checks.support import (
    FIXTURES,
    assert_matches_markers,
    check,
    observed,
)

DET_STEMS = ("det001", "det002", "det003", "det005")


@pytest.mark.parametrize("stem", DET_STEMS)
def test_bad_fixture_matches_markers(stem):
    # All built-in rules run: the markers are the *complete* expected
    # finding set, so any other rule misfiring on the file fails too.
    path = FIXTURES / f"{stem}_bad.py"
    assert_matches_markers(check(path), path)


@pytest.mark.parametrize("stem", DET_STEMS)
def test_clean_twin_is_clean(stem):
    path = FIXTURES / f"{stem}_clean.py"
    assert observed(check(path)) == []


def test_det001_message_names_the_qualified_call():
    report = check(FIXTURES / "det001_bad.py", select=["DET001"])
    messages = {f.message for f in report.findings}
    assert "call to global-state RNG random.random()" in messages
    assert "call to global-state RNG numpy.random.rand()" in messages
    # `from random import shuffle` resolves through the import map.
    assert "call to global-state RNG random.shuffle()" in messages


def test_det002_resolves_datetime_through_import_map():
    report = check(FIXTURES / "det002_bad.py", select=["DET002"])
    messages = {f.message for f in report.findings}
    assert (
        "wall-clock read datetime.datetime.now() outside the obs allowlist"
        in messages
    )


def test_det005_flags_both_iteration_and_json_dumps():
    report = check(FIXTURES / "det005_bad.py", select=["DET005"])
    messages = sorted(f.message for f in report.findings)
    assert any("dict .items()" in m for m in messages)
    assert any("json.dumps() without sort_keys=True" in m for m in messages)
    # The indirect digest helper (one call away from hashlib) is covered.
    assert any("key_for()" in m for m in messages)


def test_every_det_finding_is_an_error_with_a_hint():
    report = check(FIXTURES / "det001_bad.py", select=["DET001"])
    assert report.findings
    for finding in report.findings:
        assert finding.severity == "error"
        assert finding.hint
