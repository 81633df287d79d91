"""Worker-safety rules (WRK001–WRK002).

Task functions registered through
:func:`repro.runtime.tasks.task_function` execute in pool workers:
they are resolved *by kind name* after a fork/spawn, so they must be
importable module-level callables, and anything they write to module
globals stays in the worker — invisible to the parent and to every
other worker, which is a serial-vs-parallel divergence by
construction.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.registry import get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ModuleContext

_TASK_DECORATOR_NAMES = {"task_function"}


def _task_decorated(node: ast.AST) -> bool:
    """Is this def decorated with ``@task_function("kind")``?"""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name in _TASK_DECORATOR_NAMES:
            return True
    return False


def _iter_task_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """``(def, ancestors)`` for every task-decorated function."""
    stack: list = [(tree, ())]
    while stack:
        node, parents = stack.pop()
        if _task_decorated(node):
            yield node, parents
        for child in ast.iter_child_nodes(node):
            stack.append((child, parents + (node,)))


@rule(
    "WRK001",
    name="task-fn-not-module-level",
    hint=(
        "move the task function to module scope so worker processes can "
        "resolve it by kind name after fork/spawn"
    ),
)
def task_fn_not_module_level(ctx: "ModuleContext") -> Iterator[Finding]:
    """Nested task functions are unreachable from worker processes.

    The engine ships ``kind`` strings, not function objects; the worker
    re-resolves them through ``TASK_FUNCTIONS``, whose entries register
    at *import* time.  A def nested in a function or class only
    registers when its enclosing scope runs — which a fresh worker
    never does — so ``jobs=1`` works and ``jobs=8`` raises (or worse,
    resolves a stale registration).
    """
    this = get_rule("WRK001")
    module = ctx.module
    for node, parents in _iter_task_functions(module.tree):
        nested = any(
            isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for p in parents
        )
        if nested:
            yield this.finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                f"task function {node.name}() is not defined at module level",
            )


@rule(
    "WRK002",
    name="task-fn-mutates-global-state",
    hint=(
        "return the data as the task's value or record it on the ambient "
        "metrics instead; worker-side global writes never reach the "
        "parent process"
    ),
)
def task_fn_mutates_global_state(ctx: "ModuleContext") -> Iterator[Finding]:
    """Module-global writes inside task bodies diverge under a pool.

    Inline (``jobs=1``) the write lands in the parent's module and
    persists; in a worker it lands in a forked copy and evaporates.
    Results must flow back as the task's return value and through the
    ambient metrics and spans (``current_obs()``), which the engine
    merges deterministically.  Flagged: ``global`` declarations, and
    stores through a module-level name (``CACHE[k] = v``,
    ``STATE.field = v``).
    """
    this = get_rule("WRK002")
    module = ctx.module
    module_names = _module_level_names(module.tree)
    for fn, _parents in _iter_task_functions(module.tree):
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        local_names = _local_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield this.finding(
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    f"task function {fn.name}() declares "
                    f"global {', '.join(node.names)}",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    base = _store_base_name(target)
                    if (
                        base is not None
                        and base in module_names
                        and base not in local_names
                    ):
                        yield this.finding(
                            module.relpath,
                            target.lineno,
                            target.col_offset,
                            f"task function {fn.name}() writes through "
                            f"module-level name {base!r}",
                        )


def _store_base_name(target: ast.AST) -> Optional[str]:
    """Root name of a subscript/attribute store target (``X[k]``, ``X.a``)."""
    cursor = target
    if not isinstance(cursor, (ast.Subscript, ast.Attribute)):
        return None
    while isinstance(cursor, (ast.Subscript, ast.Attribute)):
        cursor = cursor.value
    return cursor.id if isinstance(cursor, ast.Name) else None


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _local_names(fn: ast.AST) -> Set[str]:
    """Parameters plus names assigned (as plain names) inside the body."""
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    names: Set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, ast.withitem) and isinstance(
            node.optional_vars, ast.Name
        ):
            names.add(node.optional_vars.id)
    return names
