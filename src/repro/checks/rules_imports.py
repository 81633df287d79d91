"""Import-hygiene rules (IMP000, IMP003).

IMP000 reports files the engine cannot parse; IMP003 keeps the
``repro.*`` module graph acyclic.  Undefined names and unused imports
are left to ruff (F821, F401), which CI's lint job runs over the same
trees.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from repro.checks.astutils import ModuleSource
from repro.checks.findings import Finding
from repro.checks.registry import get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ModuleContext, ProjectContext


@rule(
    "IMP000",
    name="syntax-error",
    hint="fix the syntax error; no other rule can run on this file",
)
def syntax_error(ctx: "ModuleContext") -> Iterator[Finding]:
    """A file that does not parse fails every other guarantee.

    This rule never runs as a checker: the engine emits IMP000 directly
    when ``ast.parse`` raises, so the failure is a structured finding
    (suppressible, renderable as a GitHub annotation) instead of a
    crash.  It is registered so it appears in the catalog and can be
    selected or suppressed like any other rule.
    """
    return iter(())


@rule(
    "IMP003",
    name="import-cycle",
    scope="project",
    hint=(
        "break the cycle: move the import into the function that needs it, "
        "or split the shared vocabulary into a leaf module"
    ),
)
def import_cycle(ctx: "ProjectContext") -> Iterator[Finding]:
    """Top-level import cycles across ``repro.*`` modules.

    Cycles make import order load-bearing: whichever module imports
    first sees a half-initialized partner, and worker processes — which
    import in a different order than the parent — are where that
    surfaces.  Function-local imports are excluded deliberately; they
    are the sanctioned way to *break* a cycle and the codebase uses
    them as such.
    """
    this = get_rule("IMP003")
    graph, first_import_line = _module_graph(ctx.modules)
    for cycle in _cycles(graph):
        anchor = min(cycle)
        module = next(
            (m for m in ctx.modules if m.module_name == anchor), None
        )
        if module is None:
            continue
        line = min(
            (
                first_import_line[(anchor, member)]
                for member in cycle
                if (anchor, member) in first_import_line
            ),
            default=1,
        )
        # The SCC is a set, not a path — render it as membership so the
        # message never implies an edge that does not exist.
        yield this.finding(
            module.relpath,
            line,
            0,
            f"import cycle among: {', '.join(cycle)}",
        )


def _module_graph(
    modules: List[ModuleSource],
) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], int]]:
    """Top-level-import edges between analyzed modules."""
    known = {m.module_name for m in modules if m.module_name}
    graph: Dict[str, Set[str]] = {name: set() for name in known if name}
    first_line: Dict[Tuple[str, str], int] = {}

    def add_edge(src: str, dst: str, line: int) -> None:
        if dst in known and dst != src:
            graph[src].add(dst)
            first_line.setdefault((src, dst), line)

    for module in modules:
        src = module.module_name
        if not src:
            continue
        for node in _toplevel_statements(module.tree):
            if isinstance(node, ast.Import):
                # Edges point at the named module only: technically
                # `import a.b.c` also initializes the parent packages,
                # but counting those edges would report every package
                # that re-exports its own submodules as a "cycle".
                for alias in node.names:
                    add_edge(src, alias.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_from_import(
                    src, node, is_package=module.path.name == "__init__.py"
                )
                if not base:
                    continue
                add_edge(src, base, node.lineno)
                for alias in node.names:
                    if alias.name != "*":
                        add_edge(src, f"{base}.{alias.name}", node.lineno)
    return graph, first_line


def _toplevel_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-body statements, descending into if/try (they run at import)."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, ast.If):
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _resolve_from_import(
    src_module: str, node: ast.ImportFrom, *, is_package: bool = False
) -> str:
    """Absolute module a ``from ... import`` targets ("" if unresolvable)."""
    if node.level == 0:
        return node.module or ""
    # Relative: level 1 means "my package" — which is the module itself
    # for an __init__.py, its parent otherwise.
    strip = node.level - 1 if is_package else node.level
    parts = src_module.split(".")
    if len(parts) < strip:
        return ""
    base_parts = parts[: len(parts) - strip] if strip else parts
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts)


def _cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components with more than one member (Tarjan)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    result: List[List[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: recursion depth would track module-graph depth.
        work: List[Tuple[str, Iterator[str]]] = [(v, iter(sorted(graph[v])))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, edges = work[-1]
            advanced = False
            for dst in edges:
                if dst not in index:
                    index[dst] = lowlink[dst] = counter[0]
                    counter[0] += 1
                    stack.append(dst)
                    on_stack.add(dst)
                    work.append((dst, iter(sorted(graph[dst]))))
                    advanced = True
                    break
                if dst in on_stack:
                    lowlink[node] = min(lowlink[node], index[dst])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    result.append(sorted(component))

    for vertex in sorted(graph):
        if vertex not in index:
            strongconnect(vertex)
    # Self-loops (module importing itself) would be len==1; ignore.
    return result
