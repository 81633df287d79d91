"""Service-layering rule (SVC001).

The service exists so that simulation work is *queued*: submissions are
validated, persisted, deduplicated against in-flight twins, and executed
by the worker pool with bounded concurrency.  An HTTP handler (or any
request-path code) that calls a simulation entry point directly bypasses
all of that — the request thread blocks for the whole simulation, the
queue limit stops meaning anything, and identical submissions stop
coalescing.  SVC001 pins the layering: inside ``repro/service/`` only
the executor module may invoke simulation or pipeline entry points.

The rule is *transitive*: a handler that reaches ``simulate_trace``
through any chain of helper calls — even helpers in other modules —
fails the same way a direct call does, and the finding prints the
offending chain.  Reachability runs over the project call graph
(:mod:`repro.checks.callgraph`); thread-spawn edges are not followed,
so handing work to the executor's worker pool (the sanctioned path)
never counts as "reaching simulation".
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Iterator,
    List,
    Set,
    Tuple,
    cast,
)

import repro.checks.callgraph as cg
from repro.checks.astutils import call_name, short_qualname
from repro.checks.findings import Finding
from repro.checks.registry import Rule, get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ProjectContext

#: Simulation/pipeline entry points that must stay behind the job queue.
SIM_ENTRY_POINTS = frozenset(
    {
        "simulate_trace",
        "simulate_frames",
        "simulate_frames_many",
        "frame_times_many",
        "cluster_frames",
        "pathfinding_sweep",
    }
)

#: Receiver-name fragments that mark an ``<obj>.run(...)`` call as a
#: pipeline invocation (``SubsettingPipeline.run`` is the entry point,
#: but the receiver is whatever variable holds the pipeline).
_PIPELINE_RECEIVER_HINTS = ("pipeline",)

#: The one service module allowed to reach the engine: jobs flow
#: through the executor's queue and worker pool by design.  Matching is
#: on the normalized (posix) relpath.
SERVICE_EXECUTOR_ALLOWLIST = ("service/executor.py",)


def _in_service(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return "/service/" in normalized or normalized.startswith("service/")


def _is_allowlisted(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(
        fragment in normalized for fragment in SERVICE_EXECUTOR_ALLOWLIST
    )


def _receiver_names(call: ast.Call) -> Iterator[str]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return
    for node in ast.walk(func.value):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _is_pipeline_run(call: ast.Call) -> bool:
    if call_name(call) != "run":
        return False
    for name in _receiver_names(call):
        lowered = name.lower()
        if any(hint in lowered for hint in _PIPELINE_RECEIVER_HINTS):
            return True
    return False


# -- transitive reachability over the call graph ---------------------------


def _is_sim_seed_site(site: cg.CallSite) -> bool:
    """Does this call site invoke a simulation entry point?"""
    if site.name in SIM_ENTRY_POINTS:
        return True
    if site.callee is not None and site.callee.endswith(".run"):
        return "pipeline" in site.callee.lower()
    return False


def sim_reachability(graph: cg.CallGraph) -> Tuple[Set[str], Set[str]]:
    """``(seeds, reaching)``: direct sim callers and who can reach them.

    Shared by SVC001 and OBS002.  Thread-spawn edges are excluded from
    the closure, so enqueueing work for the executor's workers — the
    sanctioned indirection — never puts a handler in the reaching set.
    """
    cached = graph.memo.get("sim_reachability")
    if cached is not None:
        return cast(Tuple[Set[str], Set[str]], cached)
    seeds = {
        caller
        for caller, sites in graph.sites.items()
        if any(_is_sim_seed_site(site) for site in sites)
    }
    result = (seeds, graph.reaching_set(seeds))
    graph.memo["sim_reachability"] = result
    return result


def _terminal_sim_call(graph: cg.CallGraph, qualname: str) -> str:
    for site in graph.sites.get(qualname, ()):
        if _is_sim_seed_site(site):
            return site.name
    return "simulation"


def chain_description(
    graph: cg.CallGraph, start: str, seeds: Set[str]
) -> str:
    """``a.b -> c.d -> simulate_trace()`` for the finding message."""
    hops: List[str] = [short_qualname(start)]
    tail = start
    chain = graph.call_chain(start, seeds) or []
    for site in chain:
        tail = str(site.callee)
        hops.append(short_qualname(tail))
    return " -> ".join(hops) + f" -> {_terminal_sim_call(graph, tail)}()"


def transitive_sim_findings(
    graph: cg.CallGraph,
    this: Rule,
    relpath: str,
    *,
    layer: str,
    skip: Set[Tuple[int, int]],
) -> Iterator[Finding]:
    """Findings for calls in ``relpath`` whose chain reaches simulation.

    ``skip`` holds (line, col) positions already reported as direct
    calls, so a resolved direct call is not flagged twice.  ``layer``
    names the violated contract in the message ("service" / "dash").
    """
    seeds, reaching = sim_reachability(graph)
    for info in graph.functions_in(relpath):
        for site in graph.sites.get(info.qualname, ()):
            if site.kind != "call" or site.callee is None:
                continue
            if (site.lineno, site.col) in skip:
                continue
            if site.callee not in reaching:
                continue
            chain = chain_description(graph, site.callee, seeds)
            yield this.finding(
                relpath,
                site.lineno,
                site.col,
                f"{site.name}() transitively runs simulation from "
                f"{layer} code: {chain}",
            )


@rule(
    "SVC001",
    name="service-handler-runs-simulation",
    severity="error",
    scope="project",
    hint=(
        "submit the work through JobExecutor.submit() so it is queued, "
        "bounded, and deduplicated; only repro/service/executor.py may "
        "call simulation or pipeline entry points"
    ),
)
def service_handler_runs_simulation(
    ctx: "ProjectContext",
) -> Iterator[Finding]:
    """Request-path service code invoking the engine, however indirectly.

    Applies to every module under ``repro/service/`` except the
    executor.  A ``simulate_trace`` / ``pipeline.run`` /
    ``pathfinding_sweep`` call in a handler — direct, or at the end of
    any helper chain the call graph can resolve — runs unbounded
    simulation on the request thread: no queue slot, no 429
    backpressure, no coalescing, no job record — the exact failure
    modes the service subsystem was built to prevent.
    """
    this = get_rule("SVC001")
    graph = ctx.callgraph()
    for module in ctx.modules:
        if not _in_service(module.relpath):
            continue
        if _is_allowlisted(module.relpath):
            continue
        direct: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in SIM_ENTRY_POINTS:
                direct.add((node.lineno, node.col_offset))
                yield this.finding(
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{name}() called directly from service module "
                    f"{module.relpath}; simulation must go through the "
                    f"job executor",
                )
            elif _is_pipeline_run(node):
                direct.add((node.lineno, node.col_offset))
                yield this.finding(
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    "pipeline.run() called directly from service module "
                    f"{module.relpath}; simulation must go through the "
                    f"job executor",
                )
        yield from transitive_sim_findings(
            graph, this, module.relpath, layer="service", skip=direct
        )
