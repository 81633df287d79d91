"""Determinism rules (DET001–DET003, DET005).

The reproduction's trust chain is: serial run == parallel run == cached
run, bit for bit (docs/RUNTIME.md).  Every rule here targets a way that
chain silently breaks — hidden global RNG state, wall-clock or
environment reads leaking into cache-keyed computation, unsorted dict
iteration feeding a digest.  Mutable default arguments are left to
ruff (B006), which CI's lint job runs over the same trees.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.checks.astutils import (
    call_keyword,
    is_constant,
    iter_functions,
    resolve_qualname,
    walk_with_parents,
)
from repro.checks.findings import Finding
from repro.checks.registry import get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ModuleContext

# Global-state entry points of the two RNG APIs.  Seeding helpers and
# explicitly seeded constructors are the *fix*, not the violation.
_RANDOM_MODULES = ("random", "numpy.random")
_RANDOM_ALLOWED_TAILS = {
    "seed",
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "Philox",
    "Random",
    "SystemRandom",  # explicitly *not* reproducible; flagging it twice helps nobody
    "get_state",
    "set_state",
}

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Path fragments where wall-clock and environment reads are legitimate:
#: observability stamps real timestamps by design, the dataset registry
#: honors the full-scale env toggle, the cache honors its dir override,
#: and the service stamps job lifecycle times (created/started/finished)
#: into its persistent records.  Matching is on the normalized (posix)
#: relpath.
ENV_TIME_ALLOWLIST = (
    "repro/obs/",
    "repro/datasets.py",
    "repro/runtime/cache.py",
    "repro/service/",
    # Kernel-backend and precompute-store selection are env-driven by
    # contract ($REPRO_KERNELS / $REPRO_PRECOMP_DIR / _MEMO_TRACES):
    # both choose *where/how* bit-identical results are computed, never
    # the results themselves, and workers must inherit the parent's
    # choice through the environment.
    "repro/simgpu/_kernels.py",
    "repro/simgpu/precomp_store.py",
)


def _is_allowlisted(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(fragment in normalized for fragment in ENV_TIME_ALLOWLIST)


@rule(
    "DET001",
    name="unseeded-global-random",
    hint=(
        "use repro.util.rng.make_rng / np.random.default_rng(seed) (or "
        "random.Random(seed)) instead of the global RNG stream"
    ),
)
def unseeded_global_random(ctx: "ModuleContext") -> Iterator[Finding]:
    """Global-stream RNG calls make results depend on call *order*.

    ``np.random.rand()`` and friends draw from interpreter-global state,
    so any reordering — a new worker schedule, an extra draw added three
    modules away — changes every number downstream.  Task code must
    derive a generator from an explicit seed
    (:func:`repro.util.rng.spawn_worker_seed` exists for exactly this).
    """
    this = get_rule("DET001")
    module = ctx.module
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = resolve_qualname(node.func, module.import_map)
        if qualname is None:
            continue
        for api in _RANDOM_MODULES:
            prefix = api + "."
            if qualname.startswith(prefix):
                tail = qualname[len(prefix):].split(".")[0]
                if tail not in _RANDOM_ALLOWED_TAILS:
                    yield this.finding(
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        f"call to global-state RNG {qualname}()",
                    )
                break


@rule(
    "DET002",
    name="wall-clock-read",
    hint=(
        "derive timing from inputs, or move the read into repro.obs "
        "(timestamps belong to observability, not computation)"
    ),
)
def wall_clock_read(ctx: "ModuleContext") -> Iterator[Finding]:
    """Wall-clock reads poison cache keys and parallel parity.

    ``time.time()`` differs between the run that populated the cache
    and the run that reads it; any value derived from it breaks the
    serial == parallel == cached contract.  Only the observability
    layer (span anchors, manifests, log records) may read the clock —
    those paths are allowlisted.  ``time.perf_counter`` is fine
    anywhere: it measures durations for telemetry and never feeds
    results.
    """
    this = get_rule("DET002")
    module = ctx.module
    if _is_allowlisted(module.relpath):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = resolve_qualname(node.func, module.import_map)
        if qualname in _WALL_CLOCK_CALLS:
            yield this.finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                f"wall-clock read {qualname}() outside the obs allowlist",
            )


@rule(
    "DET003",
    name="environ-read",
    hint=(
        "thread the value through explicit configuration (CLI flag or "
        "function parameter) so it participates in cache keys"
    ),
)
def environ_read(ctx: "ModuleContext") -> Iterator[Finding]:
    """Environment reads are invisible inputs the cache key can't see.

    Two hosts with different ``$FOO`` would share a cache entry while
    computing different results.  The two sanctioned reads —
    ``REPRO_CACHE_DIR`` (changes *where* artifacts live, never their
    content) and the datasets full-scale toggle — live in allowlisted
    paths.
    """
    this = get_rule("DET003")
    module = ctx.module
    if _is_allowlisted(module.relpath):
        return
    for node in ast.walk(module.tree):
        qualname = resolve_qualname(node, module.import_map)
        if qualname == "os.environ":
            yield this.finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                "read of os.environ outside the configuration allowlist",
            )
        elif isinstance(node, ast.Call):
            fn_qualname = resolve_qualname(node.func, module.import_map)
            if fn_qualname == "os.getenv":
                yield this.finding(
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    "call to os.getenv() outside the configuration allowlist",
                )


_DICT_VIEW_METHODS = {"items", "keys", "values"}


def _hashlib_callers(module_tree: ast.Module, import_map: Dict[str, str]) -> Set[str]:
    """Names of functions that construct digests, directly or one hop away."""
    direct: Set[str] = set()
    calls_by_fn: Dict[str, Set[str]] = {}
    for fn in iter_functions(module_tree):
        called: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                qualname = resolve_qualname(node.func, import_map)
                if qualname and qualname.startswith("hashlib."):
                    direct.add(fn.name)
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
        calls_by_fn[fn.name] = called
    # One propagation round: functions calling a direct hasher are digest
    # context too (task_key -> _sha256_hex is the repo's own shape).
    indirect = {
        name for name, called in calls_by_fn.items() if called & direct
    }
    return direct | indirect


@rule(
    "DET005",
    name="unsorted-digest-input",
    hint=(
        "wrap the iteration in sorted(...) or pass sort_keys=True so the "
        "digest is independent of insertion order"
    ),
)
def unsorted_digest_input(ctx: "ModuleContext") -> Iterator[Finding]:
    """Digest inputs must not depend on dict insertion order.

    Cache keys are SHA-256 over canonical text; feeding them
    ``dict.items()`` in insertion order (or ``json.dumps`` without
    ``sort_keys=True``) makes two semantically identical configs hash
    differently — a silent cache *miss* at best, and a silent *hit*
    across genuinely different inputs if insertion order ever encodes
    meaning.  The rule scans functions that construct digests (call
    ``hashlib.*`` directly or via one local helper).
    """
    this = get_rule("DET005")
    module = ctx.module
    digest_fns = _hashlib_callers(module.tree, module.import_map)
    if not digest_fns:
        return
    for fn in iter_functions(module.tree):
        if fn.name not in digest_fns:
            continue
        for node, parents in walk_with_parents(fn):
            if isinstance(node, ast.Call):
                qualname = resolve_qualname(node.func, module.import_map)
                if qualname == "json.dumps" and not is_constant(
                    call_keyword(node, "sort_keys"), True
                ):
                    yield this.finding(
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        f"json.dumps() without sort_keys=True in digest "
                        f"function {fn.name}()",
                    )
                    continue
            view_call = _bare_dict_view_iteration(node)
            if view_call is not None:
                yield this.finding(
                    module.relpath,
                    view_call.lineno,
                    view_call.col_offset,
                    f"iteration over dict .{view_call.func.attr}() in digest "
                    f"function {fn.name}() without sorted()",
                )


def _bare_dict_view_iteration(node: ast.AST) -> Optional[ast.Call]:
    """The ``x.items()``-style call iterated without an ordering wrapper."""
    iters: List[ast.expr] = []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iters.append(node.iter)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        iters.extend(gen.iter for gen in node.generators)
    for candidate in iters:
        if (
            isinstance(candidate, ast.Call)
            and isinstance(candidate.func, ast.Attribute)
            and candidate.func.attr in _DICT_VIEW_METHODS
            and not candidate.args
            and not candidate.keywords
        ):
            return candidate
    return None
