"""Project-wide call graph over the parsed module set.

This is the cross-module layer of the checker: one index of every
function and class in the analyzed tree, with call sites resolved
through each module's import map (:func:`repro.checks.astutils`
qualname resolution), light attribute/parameter type inference, and
``threading.Thread(target=...)`` spawn edges tagged separately from
plain calls.  Project-scoped rules use it to answer questions no
single-file rule can: *which classes run on multiple threads* (the
CONC race detector), *can this HTTP handler reach the simulator
through any chain of helpers* (the transitive SVC001/OBS002 layering
rules), and *does this call block on file I/O* (the lock-discipline
rule's transitive blocking set).

Resolution is deliberately conservative: an edge exists only when the
receiver is nailed down — a direct name bound by a module-level def, an
imported qualname, ``self``-dotted chains walked through inferred
attribute types, or a local whose constructor or annotation names a
project class.  Unresolved calls stay in the per-function site list
(``callee=None``) so rules can still pattern-match raw names, but they
never create edges — a hazard report must be able to print the exact
chain it found.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import repro.checks.astutils as astutils

#: Qualnames whose construction marks an attribute as a lock.
LOCK_FACTORIES: FrozenSet[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

#: Construction qualnames for containers that are thread-safe by design;
#: attributes holding one are exempt from lock-discipline analysis.
THREADSAFE_FACTORIES: FrozenSet[str] = frozenset(
    {
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "threading.local",
        "threading.Event",
        "threading.Barrier",
    }
    | LOCK_FACTORIES
)

#: Base classes whose subclasses' ``do_*``/``handle`` methods run on
#: server-spawned threads (one per request under ThreadingHTTPServer).
HTTP_HANDLER_BASES: FrozenSet[str] = frozenset(
    {
        "http.server.BaseHTTPRequestHandler",
        "http.server.SimpleHTTPRequestHandler",
        "socketserver.BaseRequestHandler",
        "socketserver.StreamRequestHandler",
    }
)

#: Pseudo-function name holding a module's top-level call sites.
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside an indexed function.

    ``callee`` is the resolved target qualname (``None`` when the
    receiver could not be nailed down); ``name`` is always the raw
    called name (the last attribute segment), so rules can pattern-match
    unresolved calls too.  ``dotted`` is the import-resolved dotted name
    even when it is not a project symbol (``os.replace``, ``time.sleep``
    — how rules tell stdlib blocking primitives from same-named methods).
    ``kind`` is ``"call"`` for plain invocation and ``"thread"`` for a
    ``threading.Thread(target=...)`` spawn edge.
    """

    caller: str
    callee: Optional[str]
    name: str
    lineno: int
    col: int
    kind: str = "call"
    dotted: Optional[str] = None


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str
    relpath: str
    name: str
    lineno: int
    class_qualname: Optional[str] = None


@dataclass
class ClassInfo:
    """One indexed class: methods, inferred attribute types, locks."""

    qualname: str
    relpath: str
    name: str
    lineno: int
    #: resolved base-class qualnames (project or external)
    bases: List[str] = field(default_factory=list)
    #: method name -> function qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> inferred class qualname
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attributes holding a lock object (``with self._lock:`` guards)
    lock_attrs: Set[str] = field(default_factory=set)
    #: attributes holding thread-safe containers (exempt from guarding)
    threadsafe_attrs: Set[str] = field(default_factory=set)


class CallGraph:
    """The linked graph: function index, class index, resolved edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> every call site in its body
        self.sites: Dict[str, List[CallSite]] = {}
        #: scratch space for rules to memoize derived sets per graph
        self.memo: Dict[str, object] = {}
        #: function AST node per qualname (module-body pseudo-nodes excluded)
        self._nodes: Dict[str, astutils.FunctionNode] = {}

    # -- lookups -----------------------------------------------------------

    def node_for(self, qualname: str) -> Optional[astutils.FunctionNode]:
        return self._nodes.get(qualname)

    def functions_in(self, relpath: str) -> List[FunctionInfo]:
        """Indexed functions of one module, in definition order."""
        return sorted(
            (f for f in self.functions.values() if f.relpath == relpath),
            key=lambda f: f.lineno,
        )

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[str]:
        """``method`` on a class, walking project base classes."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    # -- thread model ------------------------------------------------------

    def thread_entry_points(self) -> Set[str]:
        """Functions that start on their own thread.

        ``threading.Thread(target=...)`` targets, plus every ``do_*`` /
        ``handle`` method of an HTTP request-handler subclass (each
        request runs on a server-spawned thread).
        """
        entries: Set[str] = set()
        for sites in self.sites.values():
            for site in sites:
                if site.kind == "thread" and site.callee is not None:
                    entries.add(site.callee)
        for cls in self.classes.values():
            if not self._is_handler_class(cls, set()):
                continue
            for name, qualname in cls.methods.items():
                if name.startswith("do_") or name == "handle":
                    entries.add(qualname)
        return entries

    def _is_handler_class(self, cls: ClassInfo, seen: Set[str]) -> bool:
        for base in cls.bases:
            if base in HTTP_HANDLER_BASES:
                return True
            if base in seen:
                continue
            seen.add(base)
            parent = self.classes.get(base)
            if parent is not None and self._is_handler_class(parent, seen):
                return True
        return False

    def threaded_classes(self) -> Set[str]:
        """Classes whose methods run on more than one thread.

        A class qualifies when a bound method of it is a thread target
        or a request-handler entry, or when any of its methods is
        reachable through call edges from such an entry point — the
        cross-module case (a ``JobStore`` shared by executor worker
        threads never spawns a thread itself).
        """
        shared = self.reachable_from(
            self.thread_entry_points(), follow_threads=True
        )
        result: Set[str] = set()
        for qualname in shared:
            info = self.functions.get(qualname)
            if info is not None and info.class_qualname is not None:
                result.add(info.class_qualname)
        return result

    # -- traversal ---------------------------------------------------------

    def _adjacent(
        self, qualname: str, follow_threads: bool
    ) -> Iterable[CallSite]:
        for site in self.sites.get(qualname, ()):
            if site.callee is None:
                continue
            if site.kind == "thread" and not follow_threads:
                continue
            yield site

    def reachable_from(
        self,
        seeds: Iterable[str],
        *,
        follow_threads: bool = False,
        exclude: Optional[FrozenSet[str]] = None,
    ) -> Set[str]:
        """Every function reachable *from* the seeds (seeds included).

        ``exclude`` is a set of module relpaths that act as a boundary:
        functions defined there are neither entered nor traversed.
        """
        excluded = exclude or frozenset()
        seen: Set[str] = set()
        stack = [s for s in seeds if s in self.functions or s in self.sites]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            info = self.functions.get(current)
            if info is not None and info.relpath in excluded:
                continue
            seen.add(current)
            for site in self._adjacent(current, follow_threads):
                if site.callee not in seen:
                    stack.append(str(site.callee))
        return seen

    def reaching_set(
        self,
        seeds: Iterable[str],
        *,
        follow_threads: bool = False,
        exclude: Optional[FrozenSet[str]] = None,
    ) -> Set[str]:
        """Every function from which some seed is reachable.

        The reverse closure of :meth:`reachable_from`: seeds included,
        ``exclude`` module relpaths form the same hard boundary (their
        functions never join the set, so paths cannot tunnel through
        them).
        """
        excluded = exclude or frozenset()
        reverse: Dict[str, Set[str]] = {}
        for caller, sites in self.sites.items():
            info = self.functions.get(caller)
            if info is not None and info.relpath in excluded:
                continue
            for site in sites:
                if site.callee is None:
                    continue
                if site.kind == "thread" and not follow_threads:
                    continue
                reverse.setdefault(site.callee, set()).add(caller)
        seen: Set[str] = set()
        stack = [
            s
            for s in seeds
            if not self._in_modules(s, excluded)
        ]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(c for c in reverse.get(current, ()) if c not in seen)
        return seen

    def _in_modules(self, qualname: str, relpaths: FrozenSet[str]) -> bool:
        info = self.functions.get(qualname)
        return info is not None and info.relpath in relpaths

    def call_chain(
        self,
        start: str,
        targets: Set[str],
        *,
        follow_threads: bool = False,
        exclude: Optional[FrozenSet[str]] = None,
    ) -> Optional[List[CallSite]]:
        """Shortest call-site path from ``start`` to any target.

        Breadth-first, so the reported chain is the most direct route;
        returns ``None`` when no target is reachable.
        """
        excluded = exclude or frozenset()
        if start in targets:
            return []
        parents: Dict[str, CallSite] = {}
        frontier: List[str] = [start]
        seen: Set[str] = {start}
        while frontier:
            nxt: List[str] = []
            for current in frontier:
                for site in self._adjacent(current, follow_threads):
                    callee = str(site.callee)
                    if callee in seen or self._in_modules(callee, excluded):
                        continue
                    seen.add(callee)
                    parents[callee] = site
                    if callee in targets:
                        chain: List[CallSite] = []
                        cursor: Optional[str] = callee
                        while cursor is not None and cursor != start:
                            chain.append(parents[cursor])
                            cursor = parents[cursor].caller
                        chain.reverse()
                        return chain
                    nxt.append(callee)
            frontier = nxt
        return None


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _module_basename(module: astutils.ModuleSource) -> str:
    if module.module_name:
        return module.module_name
    return module.relpath.replace("\\", "/").rsplit("/", 1)[-1].removesuffix(
        ".py"
    )


class _ModuleIndexer:
    """Per-module symbol table used during both build passes."""

    def __init__(self, module: astutils.ModuleSource) -> None:
        self.module = module
        self.modname = _module_basename(module)
        #: top-level name -> qualname (defs and classes in this module)
        self.local_defs: Dict[str, str] = {}
        self.local_classes: Dict[str, str] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs[node.name] = f"{self.modname}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                qual = f"{self.modname}.{node.name}"
                self.local_defs[node.name] = qual
                self.local_classes[node.name] = qual

    def resolve_name(self, name: str) -> Optional[str]:
        """A bare name to the qualname it denotes, if determinable."""
        if name in self.local_defs:
            return self.local_defs[name]
        return self.module.import_map.get(name)

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """A name/attribute chain to a fully qualified dotted name."""
        chain = astutils.attribute_chain(node)
        if chain is None:
            return None
        root = self.resolve_name(chain[0])
        if root is None:
            return None
        return ".".join([root] + chain[1:])


def _annotation_class(
    annotation: Optional[ast.expr], indexer: _ModuleIndexer
) -> Optional[str]:
    """The project-class qualname an annotation denotes, if any.

    Unwraps ``Optional[X]`` / ``Union[X, None]`` and quoted forward
    references; anything more exotic resolves to ``None``.
    """
    if annotation is None:
        return None
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = astutils.attribute_chain(node.value)
        if base is not None and base[-1] in ("Optional", "Union"):
            inner = node.slice
            elements = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                resolved = _annotation_class(element, indexer)
                if resolved is not None:
                    return resolved
        return None
    return indexer.resolve_dotted(node)


class _FunctionScanner(ast.NodeVisitor):
    """Collect call sites (and thread spawns) inside one function body.

    Nested defs/lambdas are scanned as part of the enclosing indexed
    function — a closure's calls still happen on behalf of its owner.
    """

    def __init__(
        self,
        graph: CallGraph,
        indexer: _ModuleIndexer,
        caller: str,
        class_info: Optional[ClassInfo],
        param_types: Dict[str, str],
    ) -> None:
        self.graph = graph
        self.indexer = indexer
        self.caller = caller
        self.class_info = class_info
        #: local name -> class qualname (params seeded, assignments added)
        self.local_types: Dict[str, str] = dict(param_types)
        self.sites: List[CallSite] = []

    # -- type inference ----------------------------------------------------

    def _expr_class(self, node: ast.expr) -> Optional[str]:
        """The project-class qualname an expression evaluates to."""
        if isinstance(node, ast.IfExp):
            return self._expr_class(node.body) or self._expr_class(node.orelse)
        if isinstance(node, ast.Call):
            target = self._callable_target(node.func)
            if target is not None and target in self.graph.classes:
                return target
            return None
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            chain = astutils.attribute_chain(node)
            if chain is not None:
                return self._chain_class(chain)
        return None

    def _chain_class(self, chain: List[str]) -> Optional[str]:
        """Walk ``a.b.c`` through attribute types to a class qualname."""
        root = chain[0]
        if root == "self" and self.class_info is not None:
            current: Optional[str] = self.class_info.qualname
        elif root in self.local_types:
            current = self.local_types[root]
        else:
            return None
        for attr in chain[1:]:
            if current is None:
                return None
            info = self.graph.classes.get(current)
            if info is None:
                return None
            current = info.attr_types.get(attr)
        return current

    # -- call resolution ---------------------------------------------------

    def _callable_target(self, func: ast.expr) -> Optional[str]:
        """Resolve a call's function expression to a qualname.

        Returns a function qualname, a class qualname (construction), or
        ``None``.  Method chains rooted at ``self`` or a typed local are
        walked through inferred attribute types.
        """
        if isinstance(func, ast.Name):
            return self.indexer.resolve_name(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        chain = astutils.attribute_chain(func)
        if chain is None:
            return None
        owner = self._chain_class(chain[:-1])
        if owner is not None:
            return self.graph.resolve_method(owner, chain[-1])
        dotted = self.indexer.resolve_dotted(func)
        if dotted is None:
            return None
        if dotted in self.graph.functions or dotted in self.graph.classes:
            return dotted
        # ``Class.method`` spelled through an import of the class.
        prefix, _, method = dotted.rpartition(".")
        if prefix in self.graph.classes:
            return self.graph.resolve_method(prefix, method)
        return dotted

    def _resolve_edge(self, target: Optional[str]) -> Optional[str]:
        """Normalize a callable target into a graph node, if one exists."""
        if target is None:
            return None
        if target in self.graph.functions:
            return target
        if target in self.graph.classes:
            init = self.graph.resolve_method(target, "__init__")
            return init
        return None

    def _thread_target(self, call: ast.Call) -> Optional[Tuple[str, ast.expr]]:
        func_target = self._callable_target(call.func)
        if func_target != "threading.Thread":
            return None
        target = astutils.call_keyword(call, "target")
        if target is None:
            return None
        return "thread", target

    # -- visitor -----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        inferred = self._expr_class(node.value)
        if inferred is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_types[target.id] = inferred
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            annotated = _annotation_class(node.annotation, self.indexer)
            if annotated is not None:
                self.local_types[node.target.id] = annotated
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        spawn = self._thread_target(node)
        if spawn is not None:
            _, target_expr = spawn
            resolved: Optional[str] = None
            if isinstance(target_expr, (ast.Name, ast.Attribute)):
                resolved = self._resolve_edge(
                    self._callable_target(target_expr)
                    if not isinstance(target_expr, ast.Name)
                    else self.indexer.resolve_name(target_expr.id)
                )
                if resolved is None and isinstance(target_expr, ast.Attribute):
                    chain = astutils.attribute_chain(target_expr)
                    if chain is not None:
                        owner = self._chain_class(chain[:-1])
                        if owner is not None:
                            resolved = self.graph.resolve_method(
                                owner, chain[-1]
                            )
            self.sites.append(
                CallSite(
                    caller=self.caller,
                    callee=resolved,
                    name="Thread",
                    lineno=node.lineno,
                    col=node.col_offset,
                    kind="thread",
                )
            )
            self.generic_visit(node)
            return
        target = self._callable_target(node.func)
        self.sites.append(
            CallSite(
                caller=self.caller,
                callee=self._resolve_edge(target),
                name=astutils.call_name(node) or "<expr>",
                lineno=node.lineno,
                col=node.col_offset,
                dotted=target,
            )
        )
        self.generic_visit(node)


def _param_types(
    node: astutils.FunctionNode, indexer: _ModuleIndexer
) -> Dict[str, str]:
    types: Dict[str, str] = {}
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        resolved = _annotation_class(arg.annotation, indexer)
        if resolved is not None:
            types[arg.arg] = resolved
    return types


def _index_module(graph: CallGraph, module: astutils.ModuleSource) -> None:
    indexer = _ModuleIndexer(module)
    modname = indexer.modname
    body_qual = f"{modname}.{MODULE_BODY}"
    if body_qual not in graph.functions:
        graph.functions[body_qual] = FunctionInfo(
            qualname=body_qual,
            relpath=module.relpath,
            name=MODULE_BODY,
            lineno=1,
        )
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{modname}.{node.name}"
            if qual in graph.functions:
                continue
            graph.functions[qual] = FunctionInfo(
                qualname=qual,
                relpath=module.relpath,
                name=node.name,
                lineno=node.lineno,
            )
            graph._nodes[qual] = node
        elif isinstance(node, ast.ClassDef):
            cls_qual = f"{modname}.{node.name}"
            if cls_qual in graph.classes:
                continue
            info = ClassInfo(
                qualname=cls_qual,
                relpath=module.relpath,
                name=node.name,
                lineno=node.lineno,
            )
            for base in node.bases:
                resolved = indexer.resolve_dotted(base)
                if resolved is not None:
                    info.bases.append(resolved)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    meth_qual = f"{cls_qual}.{item.name}"
                    info.methods[item.name] = meth_qual
                    graph.functions[meth_qual] = FunctionInfo(
                        qualname=meth_qual,
                        relpath=module.relpath,
                        name=item.name,
                        lineno=item.lineno,
                        class_qualname=cls_qual,
                    )
                    graph._nodes[meth_qual] = item
            graph.classes[cls_qual] = info


def _infer_class_attrs(graph: CallGraph, module: astutils.ModuleSource) -> None:
    indexer = _ModuleIndexer(module)
    for cls_name, cls_qual in indexer.local_classes.items():
        info = graph.classes.get(cls_qual)
        if info is None or info.relpath != module.relpath:
            continue
        class_node = _class_node(module, cls_name)
        if class_node is None:
            continue
        # Class-body annotations (``server: "ServiceServer"``).
        for item in class_node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                resolved = _annotation_class(item.annotation, indexer)
                if resolved is not None:
                    info.attr_types[item.target.id] = resolved
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _param_types(item, indexer)
            for node in ast.walk(item):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        _record_attr(
                            graph, info, indexer, params, target.attr,
                            node.value,
                        )
    return None


def _record_attr(
    graph: CallGraph,
    info: ClassInfo,
    indexer: _ModuleIndexer,
    params: Dict[str, str],
    attr: str,
    value: ast.expr,
) -> None:
    if isinstance(value, ast.IfExp):
        _record_attr(graph, info, indexer, params, attr, value.body)
        _record_attr(graph, info, indexer, params, attr, value.orelse)
        return
    if isinstance(value, ast.Call):
        target = indexer.resolve_dotted(value.func)
        if target in LOCK_FACTORIES:
            info.lock_attrs.add(attr)
            return
        if target in THREADSAFE_FACTORIES:
            info.threadsafe_attrs.add(attr)
            return
        if target is not None and target in graph.classes:
            info.attr_types.setdefault(attr, target)
        return
    if isinstance(value, ast.Name) and value.id in params:
        info.attr_types.setdefault(attr, params[value.id])


def _class_node(
    module: astutils.ModuleSource, name: str
) -> Optional[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _scan_module(graph: CallGraph, module: astutils.ModuleSource) -> None:
    indexer = _ModuleIndexer(module)
    modname = indexer.modname
    # Module-level statements (everything outside def/class bodies).
    body_scanner = _FunctionScanner(
        graph, indexer, f"{modname}.{MODULE_BODY}", None, {}
    )
    for node in module.tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        body_scanner.visit(node)
    graph.sites.setdefault(body_scanner.caller, []).extend(body_scanner.sites)

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scan_function(graph, indexer, node, f"{modname}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            cls_info = graph.classes.get(f"{modname}.{node.name}")
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _scan_function(
                        graph,
                        indexer,
                        item,
                        f"{modname}.{node.name}.{item.name}",
                        cls_info,
                    )


def _scan_function(
    graph: CallGraph,
    indexer: _ModuleIndexer,
    node: astutils.FunctionNode,
    qualname: str,
    class_info: Optional[ClassInfo],
) -> None:
    if graph.functions.get(qualname) is None:
        return
    if graph.functions[qualname].relpath != indexer.module.relpath:
        return  # a same-named module shadowed this one; first wins
    scanner = _FunctionScanner(
        graph, indexer, qualname, class_info, _param_types(node, indexer)
    )
    for stmt in node.body:
        scanner.visit(stmt)
    graph.sites.setdefault(qualname, []).extend(scanner.sites)


def build_call_graph(modules: Sequence[astutils.ModuleSource]) -> CallGraph:
    """Index, infer, and link the whole analyzed module set.

    Three passes: symbol indexing (every function/class gets a
    qualname), attribute-type and lock inference (needs the full class
    index), then call-site scanning and edge resolution (needs both).
    """
    graph = CallGraph()
    ordered = sorted(modules, key=lambda m: m.relpath)
    for module in ordered:
        _index_module(graph, module)
    for module in ordered:
        _infer_class_attrs(graph, module)
    for module in ordered:
        _scan_module(graph, module)
    return graph
