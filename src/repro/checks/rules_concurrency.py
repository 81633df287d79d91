"""Lock-discipline race detection (CONC001–CONC003).

The service runs real concurrency: executor worker threads, one HTTP
thread per request, and stores shared between both.  These rules encode
the discipline that keeps that safe, using the project call graph
(:mod:`repro.checks.callgraph`) to find *threaded classes* — classes
whose methods run on more than one thread because a bound method is a
``threading.Thread`` target, the class is an HTTP request handler, or
its methods are reachable from such an entry point through project
calls (a store used by the worker pool is threaded even though it never
spawns a thread itself).

For each threaded class that owns a lock (``self._lock =
threading.Lock()``), the rules infer the *guarded set*: every private
attribute written at least once inside a ``with self._lock:`` block
outside ``__init__``.  Then:

- **CONC001** — a guarded attribute is *read* (or mutated through a
  non-write path) outside any lock region: the reader can observe a
  torn update.
- **CONC002** — a guarded attribute is *written* both under the lock
  and without it: the classic lost-update race, worse than CONC001
  because both sides mutate.
- **CONC003** — a blocking call made while holding the lock:
  ``Thread.join``, ``queue.get()`` with no timeout, or any call whose
  transitive project call chain reaches file I/O (``open``,
  ``Path.glob``, ``os.replace``, …).  Everything sharing that lock
  stalls behind the disk for the duration.

``__init__`` bodies are exempt (no concurrent access before the object
escapes the constructor), as are attributes holding thread-safe types
(``queue.Queue``, ``threading.Event``, locks themselves) and bodies of
nested ``def``/``lambda`` (they run at call time, not where they appear).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
)

import repro.checks.callgraph as cg
from repro.checks.astutils import call_name, short_qualname
from repro.checks.findings import Finding
from repro.checks.registry import get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ProjectContext

#: Method names that mutate their receiver in place — calling one on a
#: guarded attribute is a write to that attribute.
MUTATING_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Import-resolved dotted names that block the calling thread.
BLOCKING_QUALNAMES: FrozenSet[str] = frozenset(
    {
        "json.dump",
        "json.load",
        "os.fsync",
        "os.makedirs",
        "os.mkdir",
        "os.remove",
        "os.rename",
        "os.replace",
        "os.unlink",
        "shutil.copy",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.run",
        "tempfile.mkstemp",
        "time.sleep",
    }
)

#: Raw call names distinctive enough to mean file I/O even unresolved —
#: the ``pathlib.Path`` API plus the ``open`` builtin.
BLOCKING_RAW_NAMES: FrozenSet[str] = frozenset(
    {
        "glob",
        "iterdir",
        "mkstemp",
        "open",
        "read_bytes",
        "read_text",
        "rglob",
        "touch",
        "write_bytes",
        "write_text",
    }
)

#: Receiver-name fragments that mark ``<obj>.join()`` as a thread join
#: (and keep ``", ".join(...)`` / ``os.path.join`` out of scope).
_THREADY_FRAGMENTS = ("thread", "worker", "proc")

_QUEUE_FRAGMENTS = ("queue", "_q")


@dataclass
class _Access:
    """One read or write of a private attribute inside a method."""

    attr: str
    lineno: int
    col: int
    is_write: bool
    lock: Optional[str]  # lock attr held at the access, if any
    method: str


@dataclass
class _LockedCall:
    """One call made while holding a lock."""

    node: ast.Call
    lock: str
    method: str


@dataclass
class _ClassScan:
    """Everything the three rules need about one threaded locked class."""

    info: cg.ClassInfo
    accesses: List[_Access] = field(default_factory=list)
    locked_calls: List[_LockedCall] = field(default_factory=list)


class _MethodScanner(ast.NodeVisitor):
    """Walk one method body tracking which lock (if any) is held.

    Nested function/lambda/class bodies are skipped entirely: their code
    runs when *called*, so neither their accesses nor the enclosing
    lock state apply to them statically.
    """

    def __init__(self, scan: _ClassScan, method: str) -> None:
        self.scan = scan
        self.method = method
        self.lock_held: Optional[str] = None
        #: Attribute node ids already classified by a write path.
        self._tracked: Set[int] = set()

    # -- helpers -----------------------------------------------------------

    def _self_attr(self, node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _is_tracked_attr(self, attr: str) -> bool:
        info = self.scan.info
        return (
            attr.startswith("_")
            and attr not in info.lock_attrs
            and attr not in info.threadsafe_attrs
        )

    def _record(
        self, node: ast.AST, attr: str, *, is_write: bool
    ) -> None:
        if not self._is_tracked_attr(attr):
            return
        self.scan.accesses.append(
            _Access(
                attr=attr,
                lineno=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                is_write=is_write,
                lock=self.lock_held,
                method=self.method,
            )
        )

    def _classify_target(self, target: ast.expr) -> None:
        attr = self._self_attr(target)
        if attr is not None:
            self._tracked.add(id(target))
            self._record(target, attr, is_write=True)
            return
        if isinstance(target, ast.Subscript):
            base_attr = self._self_attr(target.value)
            if base_attr is not None:
                self._tracked.add(id(target.value))
                self._record(target.value, base_attr, is_write=True)
            else:
                self.visit(target.value)
            self.visit(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._classify_target(element)
            return
        if isinstance(target, ast.Starred):
            self._classify_target(target.value)
            return
        self.generic_visit(target)

    # -- structure ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested def: runs later, out of scope

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_With(self, node: ast.With) -> None:
        acquired: Optional[str] = None
        for item in node.items:
            self.visit(item.context_expr)
            attr = self._self_attr(item.context_expr)
            if attr is not None and attr in self.scan.info.lock_attrs:
                acquired = attr
        if acquired is None:
            for stmt in node.body:
                self.visit(stmt)
            return
        previous = self.lock_held
        self.lock_held = acquired
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            self.lock_held = previous

    # -- accesses ----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._classify_target(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._classify_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._classify_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._classify_target(target)

    def visit_Call(self, node: ast.Call) -> None:
        if self.lock_held is not None:
            self.scan.locked_calls.append(
                _LockedCall(
                    node=node,
                    lock=self.lock_held,
                    method=self.method,
                )
            )
        func = node.func
        if isinstance(func, ast.Attribute):
            base_attr = self._self_attr(func.value)
            if base_attr is not None:
                self._tracked.add(id(func.value))
                self._record(
                    func.value,
                    base_attr,
                    is_write=func.attr in MUTATING_METHODS,
                )
            else:
                self.visit(func.value)
        else:
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) in self._tracked:
            return
        attr = self._self_attr(node)
        if attr is not None:
            self._record(node, attr, is_write=False)
            return
        self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        base_attr = self._self_attr(node.value)
        if base_attr is not None and id(node.value) not in self._tracked:
            self._tracked.add(id(node.value))
            self._record(node.value, base_attr, is_write=False)
        else:
            self.visit(node.value)
        self.visit(node.slice)


def _receiver_names(call: ast.Call) -> List[str]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return []
    names: List[str] = []
    for node in ast.walk(func.value):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Constant):
            return []  # literal receiver: ", ".join(...) etc.
    return names


def _scan_classes(graph: cg.CallGraph) -> List[_ClassScan]:
    """Per-class access/lock data for every threaded class with a lock."""
    threaded = graph.threaded_classes()
    scans: List[_ClassScan] = []
    for qualname in sorted(threaded):
        info = graph.classes.get(qualname)
        if info is None or not info.lock_attrs:
            continue
        scan = _ClassScan(info=info)
        for method_name, method_qual in sorted(info.methods.items()):
            if method_name == "__init__":
                continue
            node = graph.node_for(method_qual)
            if node is None:
                continue
            scanner = _MethodScanner(scan, method_name)
            for stmt in node.body:
                scanner.visit(stmt)
        scans.append(scan)
    return scans


def _guarded_attrs(scan: _ClassScan) -> Dict[str, str]:
    """Attr -> lock it is written under (attrs with >=1 in-lock write)."""
    guarded: Dict[str, str] = {}
    for access in scan.accesses:
        if access.is_write and access.lock is not None:
            guarded.setdefault(access.attr, access.lock)
    return guarded


@rule(
    "CONC001",
    name="unguarded-read-of-locked-attribute",
    severity="error",
    scope="project",
    hint=(
        "take the same lock that guards the attribute's writes (with "
        "self.<lock>:) around this access, or snapshot the value under "
        "the lock first"
    ),
)
def unguarded_read(ctx: "ProjectContext") -> Iterator[Finding]:
    """A lock-guarded attribute read outside the lock in a threaded class.

    If every write to ``self._x`` happens under ``self._lock``, a read
    without it can interleave with a writer mid-update — on dicts and
    lists that is a live ``RuntimeError`` or a torn view, and even for
    scalars it reads stale state the lock was meant to order.
    """
    this = get_rule("CONC001")
    graph = ctx.callgraph()
    for scan in _scan_classes(graph):
        guarded = _guarded_attrs(scan)
        for access in scan.accesses:
            if access.lock is not None or access.attr not in guarded:
                continue
            if access.is_write:
                continue  # CONC002's case
            yield this.finding(
                scan.info.relpath,
                access.lineno,
                access.col,
                f"{scan.info.name}.{access.attr} is written under "
                f"self.{guarded[access.attr]} but read here without it "
                f"(in {access.method}); methods of {scan.info.name} run "
                f"on multiple threads",
            )


@rule(
    "CONC002",
    name="inconsistently-guarded-write",
    severity="error",
    scope="project",
    hint=(
        "move this write inside `with self.<lock>:` — every mutation of "
        "a shared attribute must hold the same lock or none of them are "
        "protected"
    ),
)
def inconsistent_write(ctx: "ProjectContext") -> Iterator[Finding]:
    """A lock-guarded attribute written outside the lock elsewhere.

    Guarding *some* writes buys nothing: the unguarded writer races the
    guarded ones and both can lose updates.  This is the strongest CONC
    signal — two mutation paths with different disciplines.
    """
    this = get_rule("CONC002")
    graph = ctx.callgraph()
    for scan in _scan_classes(graph):
        guarded = _guarded_attrs(scan)
        for access in scan.accesses:
            if access.lock is not None or access.attr not in guarded:
                continue
            if not access.is_write:
                continue
            yield this.finding(
                scan.info.relpath,
                access.lineno,
                access.col,
                f"{scan.info.name}.{access.attr} is written here without "
                f"a lock (in {access.method}) but other writes hold "
                f"self.{guarded[access.attr]}; inconsistent guarding is "
                f"a lost-update race",
            )


@dataclass
class _BlockingIndex:
    """Precomputed file-I/O reachability, shared across CONC003 sites."""

    #: functions containing a direct I/O primitive call
    primitives: Set[str]
    #: functions whose transitive project call chain reaches one
    reaching: Set[str]


def _blocking_index(graph: cg.CallGraph) -> _BlockingIndex:
    primitives: Set[str] = set()
    for caller, sites in graph.sites.items():
        if any(_is_blocking_primitive(site) for site in sites):
            primitives.add(caller)
    return _BlockingIndex(
        primitives=primitives, reaching=graph.reaching_set(primitives)
    )


def _is_blocking_primitive(site: cg.CallSite) -> bool:
    if site.dotted is not None and site.dotted in BLOCKING_QUALNAMES:
        return True
    return site.callee is None and site.name in BLOCKING_RAW_NAMES


def _blocking_reason(
    graph: cg.CallGraph,
    index: _BlockingIndex,
    call: ast.Call,
    scan: _ClassScan,
    method: str,
) -> Optional[str]:
    """Why this in-lock call blocks, or ``None`` if it doesn't.

    Checked in order: thread join, untimed queue get, direct I/O
    primitive, then a resolved project callee whose transitive chain
    reaches an I/O primitive (the chain is named in the message).
    """
    name = call_name(call)
    receivers = [r.lower() for r in _receiver_names(call)]
    if name == "join" and any(
        frag in recv for recv in receivers for frag in _THREADY_FRAGMENTS
    ):
        return "join() waits for a thread"
    if (
        name == "get"
        and not call.args
        and all(kw.arg != "timeout" for kw in call.keywords)
        and any(
            frag in recv for recv in receivers for frag in _QUEUE_FRAGMENTS
        )
    ):
        return "queue get() with no timeout can wait forever"
    method_qual = scan.info.methods.get(method)
    if method_qual is None:
        return None
    for site in graph.sites.get(method_qual, ()):
        if site.lineno != call.lineno or site.col != call.col_offset:
            continue
        if _is_blocking_primitive(site):
            return f"{site.name}() performs file I/O"
        if site.callee is not None and site.callee in index.reaching:
            chain = _chain_text(graph, index, site.callee)
            return f"{short_qualname(site.callee)}(){chain} performs file I/O"
        return None
    return None


def _chain_text(
    graph: cg.CallGraph, index: _BlockingIndex, start: str
) -> str:
    chain = graph.call_chain(start, index.primitives)
    if not chain:
        return ""
    hops = " -> ".join(short_qualname(str(site.callee)) for site in chain)
    return f" -> {hops}"


@rule(
    "CONC003",
    name="blocking-call-under-lock",
    severity="error",
    scope="project",
    hint=(
        "do the blocking work (store/file I/O, joins, untimed queue "
        "gets) outside the `with self.<lock>:` block and keep the "
        "critical section to in-memory state"
    ),
)
def blocking_under_lock(ctx: "ProjectContext") -> Iterator[Finding]:
    """A blocking call made while holding a class lock.

    Every thread sharing the lock — request handlers answering
    ``GET /v1/jobs``, workers finishing jobs — stalls behind this disk
    write or join for its full duration.  Critical sections must stay
    in-memory; persist before or after.
    """
    this = get_rule("CONC003")
    graph = ctx.callgraph()
    index = _blocking_index(graph)
    for scan in _scan_classes(graph):
        for locked in scan.locked_calls:
            reason = _blocking_reason(
                graph, index, locked.node, scan, locked.method
            )
            if reason is None:
                continue
            yield this.finding(
                scan.info.relpath,
                locked.node.lineno,
                locked.node.col_offset,
                f"{reason} while {scan.info.name}.{locked.method} holds "
                f"self.{locked.lock}",
            )
