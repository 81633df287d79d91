"""SVC rule family: service layering stays behind the job queue."""

from __future__ import annotations

from pathlib import Path

from repro.checks.engine import run_checks

from tests.checks.support import (
    FIXTURES,
    assert_matches_markers,
    check,
    observed,
)

SERVICE = FIXTURES / "service"


def test_bad_fixture_matches_markers():
    path = SERVICE / "handlers_bad.py"
    assert_matches_markers(check(path), path)


def test_clean_twin_is_clean():
    path = SERVICE / "handlers_clean.py"
    assert observed(check(path)) == []


def test_frame_totals_entry_point_is_flagged():
    # Runtime.frame_times_many prices candidates as synchronously as
    # simulate_frames_many does, so calling it from a handler bypasses
    # the queue the same way.
    path = SERVICE / "frame_times_bad.py"
    assert_matches_markers(check(path), path)


def test_frame_totals_clean_twin_is_clean():
    path = SERVICE / "frame_times_clean.py"
    assert observed(check(path)) == []


def test_executor_module_is_allowlisted():
    # The identical simulate_trace call that fires in handlers_bad.py is
    # sanctioned in service/executor.py — that's where queued jobs run.
    path = SERVICE / "executor.py"
    assert observed(check(path)) == []


def test_svc001_only_applies_to_service_modules(tmp_path: Path):
    # The same direct call outside a service directory is not SVC001's
    # business (PERF001 et al. have their own jurisdictions).
    module = tmp_path / "elsewhere.py"
    module.write_text(
        "def run(runtime, trace, config):\n"
        "    return runtime.simulate_trace(trace, config)\n",
        encoding="utf-8",
    )
    report = run_checks([module], select=["SVC001"])
    assert report.findings == []


def test_svc001_is_an_error():
    report = check(SERVICE / "handlers_bad.py", select=["SVC001"])
    assert report.findings
    assert all(f.severity == "error" for f in report.findings)


def test_real_service_modules_are_clean():
    src = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"
    report = run_checks([src], select=["SVC001"])
    assert report.findings == []


# -- transitive reachability over the call graph ---------------------------


def test_transitive_fixture_matches_markers():
    # The handler only calls quick_estimate(); simulate_trace appears
    # nowhere in the file.  The finding exists because the call graph
    # resolves the import into simlib and walks the chain.
    bad = SERVICE / "estimates_bad.py"
    report = check(bad, FIXTURES / "simlib.py", select=["SVC001"])
    assert_matches_markers(report, bad)


def test_transitive_finding_prints_the_chain():
    report = check(
        SERVICE / "estimates_bad.py", FIXTURES / "simlib.py",
        select=["SVC001"],
    )
    assert len(report.findings) == 1
    message = report.findings[0].message
    assert "transitively runs simulation" in message
    assert "simlib.quick_estimate" in message
    assert "simlib._run_model" in message
    assert message.endswith("simulate_trace()")


def test_transitive_needs_the_helper_in_the_analyzed_set():
    # Without simlib.py the import cannot be resolved, so the handler
    # is (conservatively) silent — reachability never guesses.
    report = check(SERVICE / "estimates_bad.py", select=["SVC001"])
    assert observed(report) == []
