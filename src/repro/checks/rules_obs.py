"""Observability hygiene rules (OBS001, OBS002).

Library code that ``print``\\ s bypasses every output contract the
subsystem maintains: structured JSON-lines logs stay machine-parseable,
CLI stdout stays stable for the golden tests, and worker processes
don't interleave garbage into the parent's report.  OBS001 keeps bare
``print`` calls confined to the two modules whose *job* is user-facing
output: the CLI itself and the checks reporting renderer.

OBS002 pins the dashboard's layering the way SVC001 pins the job
handlers': dash data code is a *consumer* of artifacts already on disk
(run records, span JSONL, BENCH files) and must never import
``repro.simgpu`` or call a simulation entry point — otherwise a GET
from a browser tab could start unbounded simulation work on a server
that was promised to be read-only.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Set, Tuple

from repro.checks.astutils import call_name
from repro.checks.findings import Finding
from repro.checks.registry import get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ModuleContext, ProjectContext

#: Relpath fragments where ``print`` IS the module's output contract.
PRINT_ALLOWLIST = (
    "repro/cli.py",
    "repro/checks/reporting.py",
)


def _is_allowlisted(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(fragment in normalized for fragment in PRINT_ALLOWLIST)


@rule(
    "OBS001",
    name="print-in-library-code",
    severity="warning",
    hint=(
        "route library output through repro.obs.logjson (structured "
        "events), the progress reporter (live status), or return values "
        "the CLI renders; bare print() belongs only in repro/cli.py and "
        "repro/checks/reporting.py"
    ),
)
def print_in_library_code(ctx: "ModuleContext") -> Iterator[Finding]:
    """A bare ``print(...)`` call outside the CLI/reporting modules.

    Only direct ``print`` name calls count — method calls like
    ``device.print()`` and references without a call are fine.  Debug
    prints that must stay (none are known) carry
    ``# repro: noqa[OBS001]``.
    """
    this = get_rule("OBS001")
    module = ctx.module
    if _is_allowlisted(module.relpath):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield this.finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                "print() in library code bypasses structured logging",
            )


#: Relpath fragments marking a module as dashboard data code: the
#: aggregation module, the service handler layer, and any dedicated
#: ``dash/`` package (fixtures included).  Matching is on the
#: normalized (posix) relpath.
DASH_PATH_FRAGMENTS = (
    "obs/dash.py",
    "service/dashboard.py",
    "/dash/",
)


def _is_dash_module(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(fragment in normalized for fragment in DASH_PATH_FRAGMENTS)


@rule(
    "OBS002",
    name="dash-handler-runs-simulation",
    severity="error",
    scope="project",
    hint=(
        "dashboard data code is a read-only consumer of on-disk "
        "artifacts (run records, span JSONL, BENCH files); importing "
        "repro.simgpu or calling a simulation entry point turns a GET "
        "into unbounded compute — read artifacts, or submit a job "
        "through the service instead"
    ),
)
def dash_handler_runs_simulation(ctx: "ProjectContext") -> Iterator[Finding]:
    """Dashboard data code importing or invoking the simulator.

    Applies to ``repro/obs/dash.py``, ``repro/service/dashboard.py``,
    and anything under a ``dash/`` package.  Fires on any import whose
    dotted module path mentions ``simgpu``, on importing a simulation
    entry-point name, and on calling one — directly (including
    ``pipeline.run(...)``, mirroring SVC001's call detection) or at the
    end of any helper chain the project call graph resolves.
    """
    from repro.checks.rules_service import (
        SIM_ENTRY_POINTS,
        _is_pipeline_run,
        transitive_sim_findings,
    )

    this = get_rule("OBS002")
    graph = ctx.callgraph()
    for module in ctx.modules:
        if not _is_dash_module(module.relpath):
            continue
        direct: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if "simgpu" in alias.name.split("."):
                        yield this.finding(
                            module.relpath,
                            node.lineno,
                            node.col_offset,
                            f"dash data code imports {alias.name}; the "
                            "dashboard layer is read-only",
                        )
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if "simgpu" in source.split("."):
                    yield this.finding(
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        f"dash data code imports from {source}; the "
                        "dashboard layer is read-only",
                    )
                    continue
                for alias in node.names:
                    if alias.name in SIM_ENTRY_POINTS:
                        yield this.finding(
                            module.relpath,
                            node.lineno,
                            node.col_offset,
                            f"dash data code imports simulation entry point "
                            f"{alias.name}; the dashboard layer is read-only",
                        )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in SIM_ENTRY_POINTS:
                    direct.add((node.lineno, node.col_offset))
                    yield this.finding(
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        f"{name}() called from dash data code; the "
                        "dashboard layer must not run simulations",
                    )
                elif _is_pipeline_run(node):
                    direct.add((node.lineno, node.col_offset))
                    yield this.finding(
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        "pipeline.run() called from dash data code; the "
                        "dashboard layer must not run simulations",
                    )
        yield from transitive_sim_findings(
            graph, this, module.relpath, layer="dash data", skip=direct
        )
