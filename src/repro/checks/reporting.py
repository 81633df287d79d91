"""Finding renderers: human text, machine JSON, GitHub annotations, SARIF.

One findings list, four audiences: ``text`` for a developer terminal
(clickable ``path:line``, the fix hint inline), ``json`` for tooling
(stable schema, summary block, parses with no flags), ``github``
for CI (``::error``/``::warning`` workflow commands that annotate the
diff view), and ``sarif`` for code-scanning services (a minimal but
valid SARIF 2.1.0 log that ``github/codeql-action/upload-sarif``
accepts).  Reporters are pure ``findings -> str`` functions so tests
can assert on exact output.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.checks.findings import Finding

JSON_SCHEMA_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

FORMATS = ("text", "json", "github", "sarif")


def summarize(
    findings: Sequence[Finding],
    *,
    files_scanned: int = 0,
    noqa_suppressed: int = 0,
) -> Dict[str, int]:
    """The summary block shared by the text footer and the JSON output."""
    return {
        "findings": len(findings),
        "errors": sum(1 for f in findings if f.severity == "error"),
        "warnings": sum(1 for f in findings if f.severity == "warning"),
        "files_scanned": files_scanned,
        "noqa_suppressed": noqa_suppressed,
    }


def render_text(
    findings: Sequence[Finding], summary: Optional[Mapping[str, int]] = None
) -> str:
    """Terminal rendering: one line per finding plus its hint, then a footer."""
    lines: List[str] = []
    for finding in findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule_id} {finding.severity}: {finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    if summary is not None:
        if lines:
            lines.append("")
        lines.append(
            f"{summary['findings']} finding(s) "
            f"({summary['errors']} error(s), {summary['warnings']} warning(s)) "
            f"in {summary['files_scanned']} file(s); "
            f"{summary['noqa_suppressed']} suppressed inline"
        )
    elif not lines:
        return ""
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], summary: Optional[Mapping[str, int]] = None
) -> str:
    """Machine rendering: ``{"version", "summary", "findings"}``."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "summary": dict(summary) if summary is not None else summarize(findings),
        "findings": [finding.as_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _escape_github(value: str) -> str:
    """Workflow-command escaping (the documented %, CR, LF triples)."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(findings: Sequence[Finding]) -> str:
    """CI rendering: one ``::error``/``::warning`` annotation per finding."""
    lines: List[str] = []
    for finding in findings:
        level = "error" if finding.severity == "error" else "warning"
        message = finding.message
        if finding.hint:
            message = f"{message} (hint: {finding.hint})"
        lines.append(
            f"::{level} file={_escape_github(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={_escape_github(finding.rule_id)}::"
            f"{_escape_github(message)}"
        )
    return "\n".join(lines)


def _sarif_rule_metadata(rule_id: str) -> Dict[str, Any]:
    """Registry metadata for one rule, degrading gracefully for ids the
    registry does not know."""
    from repro.checks.registry import get_rule
    from repro.errors import CheckError

    entry: Dict[str, Any] = {"id": rule_id}
    try:
        rule = get_rule(rule_id)
    except CheckError:
        return entry
    entry["name"] = rule.name
    entry["shortDescription"] = {"text": rule.name.replace("-", " ")}
    doc_line = rule.doc.splitlines()[0] if rule.doc else rule.name
    entry["fullDescription"] = {"text": doc_line}
    if rule.hint:
        entry["help"] = {"text": rule.hint}
    entry["defaultConfiguration"] = {
        "level": "error" if rule.severity == "error" else "warning"
    }
    return entry


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 rendering for code-scanning upload."""
    rule_ids = sorted({finding.rule_id for finding in findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = []
    for finding in findings:
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index[finding.rule_id],
                "level": (
                    "error" if finding.severity == "error" else "warning"
                ),
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "rules": [
                            _sarif_rule_metadata(rule_id)
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=False)


def render(
    fmt: str,
    findings: Sequence[Finding],
    summary: Optional[Mapping[str, int]] = None,
) -> str:
    """Dispatch on ``--format``."""
    if fmt == "text":
        return render_text(findings, summary)
    if fmt == "json":
        return render_json(findings, summary)
    if fmt == "github":
        return render_github(findings)
    if fmt == "sarif":
        return render_sarif(findings)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
