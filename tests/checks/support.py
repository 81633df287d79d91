"""Shared helpers for the checks test suite.

Fixture files declare their own expected findings inline: a
``# expect: RULE`` comment on a violating line means "exactly one
finding with that rule id anchors here" (``# expect: KEY003, KEY003``
declares two).  Tests compare the marker multiset against what
:func:`repro.checks.engine.run_checks` actually reports — as
``(rule_id, fixture-relative path, line)`` triples — so a rule that
drifts by even one line fails loudly.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.checks.engine import CheckReport, run_checks

FIXTURES = Path(__file__).parent / "fixtures"

#: Every built-in rule id (the registry holds exactly these).
BUILTIN_RULES = (
    "CONC001",
    "CONC002",
    "CONC003",
    "DET001",
    "DET002",
    "DET003",
    "DET005",
    "IMP000",
    "IMP003",
    "KEY001",
    "KEY002",
    "KEY003",
    "OBS001",
    "OBS002",
    "PERF001",
    "SVC001",
    "WRK001",
    "WRK002",
)

_MARKER = "# expect:"

Triple = Tuple[str, str, int]


def fixture_rel(path_str: str) -> str:
    """A finding path reduced to its fixtures-relative tail."""
    normalized = str(path_str).replace("\\", "/")
    token = "fixtures/"
    idx = normalized.rfind(token)
    return normalized[idx + len(token):] if idx >= 0 else normalized


def expected_markers(*paths: Path) -> List[Triple]:
    """``(rule_id, relpath, line)`` multiset declared by ``# expect:``."""
    expected: List[Triple] = []
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            rel = fixture_rel(file.as_posix())
            text = file.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                marker = line.partition(_MARKER)[2]
                if marker:
                    for rule_id in marker.split(","):
                        expected.append((rule_id.strip(), rel, lineno))
    return sorted(expected)


def check(
    *paths: Path, select: Optional[Sequence[str]] = None
) -> CheckReport:
    """Run the checker over fixture paths (built-in rules by default)."""
    return run_checks(list(paths), select=select or BUILTIN_RULES)


def observed(report: CheckReport) -> List[Triple]:
    """``(rule_id, relpath, line)`` multiset of a report."""
    return sorted(
        (f.rule_id, fixture_rel(f.path), f.line) for f in report.findings
    )


def assert_matches_markers(report: CheckReport, *paths: Path) -> None:
    """The report's findings are exactly the fixture's declared markers."""
    assert observed(report) == expected_markers(*paths)
