"""KEY rule family: the cache-key completeness cross-checks.

The last two tests are the subsystem's reason to exist: they copy the
*real* ``src/repro/runtime`` pair into a scratch directory, delete one
field-consumption line from ``task_key``, and require the rules to
fail — the acceptance criterion from the issue, executed on every test
run instead of once by hand.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.checks.engine import run_checks

from tests.checks.support import (
    FIXTURES,
    assert_matches_markers,
    check,
    observed,
)

KEY_RULES = ("KEY001", "KEY002", "KEY003")
REPO_RUNTIME = Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"


def test_keybad_fixture_matches_markers():
    path = FIXTURES / "keybad"
    assert_matches_markers(check(path), path)


def test_keygood_twin_is_clean():
    assert observed(check(FIXTURES / "keygood")) == []


def test_key001_reports_both_directions_of_drift():
    report = check(FIXTURES / "keybad", select=["KEY001"])
    messages = sorted(f.message for f in report.findings)
    assert any("'priority' has no keying policy" in m for m in messages)
    assert any(
        "TASK_FIELD_KEYING names 'ghost'" in m for m in messages
    )


def test_key002_names_the_dropped_parameter():
    report = check(FIXTURES / "keybad", select=["KEY002"])
    assert [f.message for f in report.findings] == [
        "task_key() parameter 'config' never reaches the key record"
    ]


def test_key003_reports_missing_and_undeclared_fields():
    report = check(FIXTURES / "keybad", select=["KEY003"])
    messages = sorted(f.message for f in report.findings)
    assert messages == [
        "key record carries undeclared field 'surprise'",
        "key record is missing declared field 'version'",
    ]


def _scratch_runtime(tmp_path: Path) -> Path:
    runtime = tmp_path / "runtime"
    runtime.mkdir()
    for name in ("keys.py", "tasks.py"):
        shutil.copy(REPO_RUNTIME / name, runtime / name)
    return runtime


def test_real_runtime_pair_is_clean(tmp_path):
    runtime = _scratch_runtime(tmp_path)
    report = run_checks([runtime], select=KEY_RULES)
    assert report.findings == []


def test_deleting_a_consumption_line_fails_the_key_rules(tmp_path):
    runtime = _scratch_runtime(tmp_path)
    keys = runtime / "keys.py"
    text = keys.read_text(encoding="utf-8")
    target = (
        '        "trace": trace_digest(trace) if trace is not None '
        "else None,\n"
    )
    assert target in text, "keys.py no longer contains the trace line"
    keys.write_text(text.replace(target, ""), encoding="utf-8")

    report = run_checks([runtime], select=KEY_RULES)
    ids = sorted({f.rule_id for f in report.findings})
    assert ids == ["KEY002", "KEY003"]
    messages = {f.message for f in report.findings}
    assert (
        "task_key() parameter 'trace' never reaches the key record"
        in messages
    )
    assert "key record is missing declared field 'trace'" in messages


def test_adding_a_task_field_without_policy_fails_key001(tmp_path):
    runtime = _scratch_runtime(tmp_path)
    tasks = runtime / "tasks.py"
    text = tasks.read_text(encoding="utf-8")
    marker = "    payload: Any = None\n"
    assert marker in text, "tasks.py no longer contains the payload field"
    tasks.write_text(
        text.replace(marker, marker + "    shiny_new_input: int = 0\n"),
        encoding="utf-8",
    )

    report = run_checks([runtime], select=["KEY001"])
    assert [f.rule_id for f in report.findings] == ["KEY001"]
    assert "'shiny_new_input' has no keying policy" in report.findings[0].message
