"""One ``Runtime`` per command: only entry points build one.

Library code takes the caller's runtime and never builds its own, so a
command's ``--jobs``, ``--cache-dir``, ``--trace-out`` and run record
cover all of its work.  In ``src/repro`` only the CLI, the service
executor (one runtime per job) and the runtime module itself construct
a ``Runtime``; benchmarks, examples and tests are entry points too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import repro

SRC = Path(repro.__file__).parent

#: The modules of ``src/repro`` allowed to construct a ``Runtime``.
ENTRY_POINTS = frozenset({"cli.py", "service/executor.py", "runtime/engine.py"})


def _constructions(path: Path) -> Iterator[int]:
    """Lines calling ``Runtime(...)`` or ``Runtime.<name>(...)``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func.value if isinstance(node.func, ast.Attribute) else node.func
        if isinstance(func, ast.Name) and func.id == "Runtime":
            yield node.lineno


def test_only_entry_points_build_a_runtime():
    sites = {
        path.relative_to(SRC).as_posix(): sorted(_constructions(path))
        for path in sorted(SRC.rglob("*.py"))
    }
    # The walk sees the runtime the CLI builds per command and the
    # executor per job ...
    assert sites["cli.py"] and sites["service/executor.py"]
    # ... and no other module builds one.
    assert {
        relpath: lines
        for relpath, lines in sites.items()
        if lines and relpath not in ENTRY_POINTS
    } == {}
