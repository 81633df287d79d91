"""The finding vocabulary shared by every rule and reporter.

A :class:`Finding` is one rule violation at one source location.  Rules
yield them; the engine filters them through inline ``# repro: noqa``
suppressions and the committed baseline; reporters render whatever
survives.  Findings are plain frozen dataclasses so they sort stably
(by path, then line, then rule) and serialize losslessly to JSON.

The *fingerprint* deliberately excludes the line number: baselines must
survive unrelated edits above a grandfathered violation, so identity is
``(rule_id, path, message)`` — messages name the offending symbol, which
keeps two different violations in one file distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Finding severities, in increasing order of gravity.  Both gate CI —
#: severity only affects how reporters render a finding (and how
#: urgently a human should treat it), never whether it counts.
SEVERITIES: Tuple[str, ...] = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one ``path:line``.

    ``hint`` is the rule's fix suggestion — one imperative sentence a
    developer can act on without opening the rule catalog.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def location(self) -> str:
        """Clickable ``path:line`` form."""
        return f"{self.path}:{self.line}"

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule_id}::{self.path}::{self.message}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
