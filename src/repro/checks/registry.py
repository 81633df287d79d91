"""Rule registry.

A *rule* is a generator function that receives an analysis context and
yields :class:`~repro.checks.findings.Finding` objects.  Rules register
themselves at import time through the :func:`rule` decorator — exactly
the pattern :data:`repro.runtime.tasks.TASK_FUNCTIONS` uses for task
kinds — so shipping a new rule is one decorated function in one of the
built-in ``rules_*`` modules.

Two scopes exist:

- ``module`` rules run once per analyzed file with a
  :class:`~repro.checks.engine.ModuleContext`;
- ``project`` rules run once per invocation with the whole
  :class:`~repro.checks.engine.ProjectContext` (import cycles and
  cache-key completeness need to see several files at once).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from repro.checks.findings import SEVERITIES, Finding
from repro.errors import CheckError

RuleFunction = Callable[[Any], Iterator[Finding]]

SCOPES: Tuple[str, ...] = ("module", "project")


@dataclass(frozen=True)
class Rule:
    """One registered rule: metadata plus the check function.

    ``hint`` is the default fix suggestion attached to findings the
    rule emits through :meth:`finding`; a rule may override it per
    finding when the fix depends on the violation.
    """

    rule_id: str
    name: str
    severity: str
    scope: str
    hint: str
    func: RuleFunction = field(repr=False)

    @property
    def doc(self) -> str:
        """The rule's rationale (its function docstring)."""
        return (self.func.__doc__ or "").strip()

    def finding(
        self, path: str, line: int, col: int, message: str, hint: str = ""
    ) -> Finding:
        """Construct a finding pre-filled with this rule's metadata."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            hint=hint or self.hint,
        )


#: All registered rules by id.  Populated at import time by the rule
#: modules.
RULES: Dict[str, Rule] = {}


def rule(
    rule_id: str,
    *,
    name: str,
    severity: str = "error",
    scope: str = "module",
    hint: str = "",
) -> Callable[[RuleFunction], RuleFunction]:
    """Register the decorated function as rule ``rule_id``.

    The decorated function keeps working as a plain callable; the
    registry only records it.  Ids are unique per process — a duplicate
    registration is a programming error, not a configuration choice.
    """
    if severity not in SEVERITIES:
        raise CheckError(
            f"rule {rule_id}: severity must be one of {SEVERITIES}, "
            f"got {severity!r}"
        )
    if scope not in SCOPES:
        raise CheckError(
            f"rule {rule_id}: scope must be one of {SCOPES}, got {scope!r}"
        )

    def register(func: RuleFunction) -> RuleFunction:
        if rule_id in RULES:
            raise CheckError(f"rule id {rule_id!r} is already registered")
        RULES[rule_id] = Rule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            scope=scope,
            hint=hint,
            func=func,
        )
        return func

    return register


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_builtin_rules()
    return [RULES[rule_id] for rule_id in sorted(RULES)]


def get_rule(rule_id: str) -> Rule:
    _ensure_builtin_rules()
    try:
        return RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(RULES))
        raise CheckError(
            f"unknown rule id {rule_id!r}; registered rules: {known}"
        ) from None


def select_rules(rule_ids: Iterable[str]) -> List[Rule]:
    """Resolve an explicit ``--select`` list, preserving registry order."""
    wanted = {rid.strip().upper() for rid in rule_ids if rid.strip()}
    if not wanted:
        return all_rules()
    for rid in wanted:
        get_rule(rid)
    return [r for r in all_rules() if r.rule_id in wanted]


def _ensure_builtin_rules() -> None:
    """Import the built-in rule modules (idempotent).

    Importing is the registration mechanism, so this goes through
    :mod:`importlib` rather than binding names nothing reads.
    """
    for module in (
        "rules_cachekey",
        "rules_concurrency",
        "rules_determinism",
        "rules_imports",
        "rules_obs",
        "rules_perf",
        "rules_service",
        "rules_worker",
    ):
        importlib.import_module(f"repro.checks.{module}")
