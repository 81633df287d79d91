"""AST plumbing shared by the rule families.

Two building blocks live here:

- :class:`ModuleSource` — one parsed file plus everything rules keep
  re-deriving: source lines, inline ``# repro: noqa`` suppressions, a
  local-name → qualified-name import map, and the inferred dotted
  module name (``src/repro/runtime/keys.py`` → ``repro.runtime.keys``).
- :func:`resolve_qualname` — maps an ``ast.Name``/``ast.Attribute``
  chain through the import map to the fully qualified symbol it denotes
  (``np.random.rand`` → ``numpy.random.rand``), which is how the
  determinism rules recognize an API regardless of import spelling.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# noqa suppressions
# ---------------------------------------------------------------------------

#: ``# repro: noqa`` suppresses every rule on the line;
#: ``# repro: noqa[DET002]`` / ``# repro: noqa[DET002, DET001]`` only those.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


def parse_noqa(lines: List[str]) -> Dict[int, Optional[FrozenSet[str]]]:
    """Per-line suppressions: ``None`` means all rules, else a rule-id set."""
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            ids = frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
            suppressions[lineno] = ids or None
    return suppressions


# ---------------------------------------------------------------------------
# Module parsing
# ---------------------------------------------------------------------------


def infer_module_name(path: Path) -> Optional[str]:
    """Dotted module name, walking up while ``__init__.py`` files exist."""
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        return None
    return ".".join(reversed(parts))


def resolve_relative_import(
    module_name: Optional[str],
    is_package: bool,
    level: int,
    target: Optional[str],
) -> Optional[str]:
    """The absolute module a relative ``from``-import refers to.

    ``from . import jobs`` inside ``repro.service.http`` has
    ``level=1, target=None`` and resolves to package ``repro.service``;
    ``from ..obs import history`` (``level=2, target="obs"``) to
    ``repro.obs``.  Inside a package ``__init__`` the package itself is
    the level-1 anchor.  Returns ``None`` when the module name is
    unknown or the level climbs past the top — the caller simply keeps
    the name unresolved.
    """
    if module_name is None or level < 1:
        return None
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        if level - 1 > len(parts):
            return None
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    if not parts:
        return None
    return ".".join(parts)


@dataclass
class ModuleSource:
    """One parsed source file and its rule-relevant derived views."""

    path: Path
    relpath: str
    tree: ast.Module
    source: str
    lines: List[str]
    module_name: Optional[str]
    noqa: Dict[int, Optional[FrozenSet[str]]] = field(default_factory=dict)
    #: local binding -> fully qualified imported symbol
    import_map: Dict[str, str] = field(default_factory=dict)
    #: the file is a package ``__init__`` (anchors relative imports)
    is_package: bool = False

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if line not in self.noqa:
            return False
        rules = self.noqa[line]
        return rules is None or rule_id.upper() in rules


def parse_module(path: Path, relpath: str) -> ModuleSource:
    """Parse one file (raises ``SyntaxError`` for the engine to report)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    module = ModuleSource(
        path=path,
        relpath=relpath,
        tree=tree,
        source=source,
        lines=lines,
        module_name=infer_module_name(path),
        noqa=parse_noqa(lines),
        is_package=path.name == "__init__.py",
    )
    module.import_map = build_import_map(
        tree, module_name=module.module_name, is_package=module.is_package
    )
    return module


# ---------------------------------------------------------------------------
# Imports and qualified names
# ---------------------------------------------------------------------------


def build_import_map(
    tree: ast.Module,
    module_name: Optional[str] = None,
    is_package: bool = False,
) -> Dict[str, str]:
    """Map local names to the qualified symbols they import.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from os import environ`` → ``{"environ": "os.environ"}``;
    ``import os.path`` → ``{"os": "os"}`` (the binding is the top
    package).  Function-local imports participate too — the determinism
    rules care what a name *means*, not where it was bound.

    Relative imports resolve against ``module_name`` when it is known
    (``from . import jobs`` inside ``repro.service.http`` maps ``jobs``
    to ``repro.service.jobs``, which is how the call graph links
    relatively-imported project modules); with no module name they stay
    unmapped, preserving the old behavior.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    mapping[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = resolve_relative_import(
                    module_name, is_package, node.level, node.module
                )
                if base is None:  # unknown anchor: not resolvable
                    continue
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{base}.{alias.name}" if base else alias.name
    return mapping


def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name-rooted chains."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    parts.reverse()
    return parts


def resolve_qualname(
    node: ast.AST, import_map: Dict[str, str]
) -> Optional[str]:
    """The fully qualified symbol a name/attribute chain denotes.

    The chain's root is looked up in the module's import map, so both
    ``np.random.rand`` and ``from numpy import random; random.rand``
    resolve to ``numpy.random.rand``.  Chains rooted in non-imported
    names resolve to None — a local variable called ``time`` is not the
    stdlib module.
    """
    chain = attribute_chain(node)
    if chain is None:
        return None
    root = chain[0]
    if root not in import_map:
        return None
    return ".".join([import_map[root]] + chain[1:])


# ---------------------------------------------------------------------------
# Misc helpers used by several rule modules
# ---------------------------------------------------------------------------


def walk_with_parents(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Depth-first walk yielding ``(node, ancestor_stack)`` pairs."""
    stack: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = [(tree, ())]
    while stack:
        node, parents = stack.pop()
        yield node, parents
        child_parents = parents + (node,)
        for child in reversed(list(ast.iter_child_nodes(node))):
            stack.append((child, child_parents))


def call_name(call: ast.Call) -> Optional[str]:
    """The called name: ``f`` for ``f()`` and ``obj.f()``; None otherwise."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def short_qualname(qualname: str) -> str:
    """The last two parts of a dotted name (``Class.method``) for messages."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def call_keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` on a call, if present."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_constant(node: Optional[ast.AST], value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def iter_functions(tree: ast.Module) -> Iterator[FunctionNode]:
    """Every def in the module, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
