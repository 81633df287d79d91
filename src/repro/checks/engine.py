"""Check orchestration: collect files, run rules, apply suppressions.

:func:`run_checks` is the one entry point the CLI and the tests share.
It parses every ``.py`` file under the given paths once, hands each
module to the module-scoped rules and the whole set to the
project-scoped rules, filters findings through inline
``# repro: noqa[RULE]`` comments, and returns a :class:`CheckReport`:
every finding that survives is one the gate fails on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

# Leaf import (not `from repro.checks import astutils`): the package
# __init__ imports this module, so going through the package would be
# exactly the IMP003 cycle this subsystem flags.
import repro.checks.astutils as astutils
import repro.checks.callgraph as callgraph_mod
from repro.checks.findings import Finding
from repro.checks.registry import get_rule, select_rules
from repro.errors import CheckError


@dataclass
class ProjectContext:
    """Everything the project-scoped rules can see."""

    modules: List[astutils.ModuleSource]
    _callgraph: Optional["callgraph_mod.CallGraph"] = field(
        default=None, repr=False, compare=False
    )

    def by_relpath(self) -> Dict[str, astutils.ModuleSource]:
        return {module.relpath: module for module in self.modules}

    def callgraph(self) -> "callgraph_mod.CallGraph":
        """The project call graph, built on first use and shared.

        Several project rules (CONC, transitive SVC/OBS) need it; one
        build per invocation keeps the whole-project pass linear.
        """
        if self._callgraph is None:
            self._callgraph = callgraph_mod.build_call_graph(self.modules)
        return self._callgraph


@dataclass
class ModuleContext:
    """One module plus the project it belongs to."""

    module: astutils.ModuleSource
    project: ProjectContext


@dataclass
class CheckReport:
    """The outcome of one analysis run."""

    findings: List[Finding]
    files_scanned: int
    noqa_suppressed: int
    rules_run: List[str] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, stable order, no duplicates.

    Hidden directories and ``__pycache__`` are skipped; explicit file
    arguments are taken as-is (so a fixture with a weird name can still
    be analyzed directly).
    """
    seen: Dict[Path, None] = {}
    for path in paths:
        if not path.exists():
            raise CheckError(f"path does not exist: {path}")
        if path.is_file():
            seen.setdefault(path.resolve(), None)
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(p == "__pycache__" or p.startswith(".") for p in parts):
                continue
            seen.setdefault(candidate.resolve(), None)
    return list(seen)


def _relpath(path: Path) -> str:
    """Path as reported in findings: cwd-relative posix when possible."""
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def run_checks(
    paths: Sequence[object],
    *,
    select: Optional[Iterable[str]] = None,
) -> CheckReport:
    """Analyze ``paths`` (files or directories) with the selected rules.

    ``select`` restricts to specific rule ids (default: every
    registered rule).  Files that fail to parse yield an ``IMP000``
    finding instead of aborting the run.
    """
    rules = select_rules(select or ())
    selected_ids = {r.rule_id for r in rules}
    module_rules = [r for r in rules if r.scope == "module"]
    project_rules = [r for r in rules if r.scope == "project"]

    files = collect_files([Path(p) for p in paths])
    modules: List[astutils.ModuleSource] = []
    raw: List[Finding] = []
    for path in files:
        relpath = _relpath(path)
        try:
            modules.append(astutils.parse_module(path, relpath))
        except SyntaxError as exc:
            if "IMP000" in selected_ids:
                raw.append(
                    get_rule("IMP000").finding(
                        relpath,
                        exc.lineno or 1,
                        (exc.offset or 1) - 1,
                        f"syntax error: {exc.msg}",
                    )
                )

    project = ProjectContext(modules)
    for module in modules:
        for a_rule in module_rules:
            raw.extend(a_rule.func(ModuleContext(module, project)))
    for a_rule in project_rules:
        raw.extend(a_rule.func(project))

    by_relpath = project.by_relpath()
    findings: List[Finding] = []
    suppressed = 0
    for finding in raw:
        module = by_relpath.get(finding.path)
        if module is not None and module.is_suppressed(
            finding.rule_id, finding.line
        ):
            suppressed += 1
        else:
            findings.append(finding)
    findings.sort()
    return CheckReport(
        findings=findings,
        files_scanned=len(files),
        noqa_suppressed=suppressed,
        rules_run=sorted(selected_ids),
    )
