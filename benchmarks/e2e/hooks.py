"""The traced op's layer hooks and the per-layer numbers derived from them.

:data:`HOOKS` is the one table of wrapped ``(layer, module, attribute)``
targets.  Each target is patched where its caller looks it up (for
example ``repro.core.cluster_frame.leader_cluster``, not
``repro.core.leader.leader_cluster``), so a refactor that moves a
function only needs its row here changed.  Wrappers open a span on the
ambient :mod:`repro.obs` tracer: inline work records into the runtime's
tracer, and pool-worker spans come back through the engine's existing
``TaskResult`` merge (workers fork after the hooks are installed).

A target that no longer resolves is reported with a warning and its
layer's metrics become ``None``; it never fails the op.

A layer's self time is its spans' time minus the time covered by the
benchmark spans nested inside them (program spans such as ``task:*`` are
looked through, not subtracted).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs.context import current_tracer

#: Span category of every benchmark span; program spans are never counted.
CATEGORY = "e2e"
#: Name of the span around one op's workload body.
ROOT = "op"

Work = Dict[str, int]


def _load_work(args: tuple, trace: Any) -> Work:
    return {"draws": trace.num_draws}


def _leader_work(args: tuple, result: Any) -> Work:
    # Row i is compared with every leader founded before it.
    founded = np.zeros(result.labels.shape[0], dtype=np.int64)
    founded[result.leader_indices] = 1
    before = np.cumsum(founded) - founded
    return {"clusters": int(result.num_clusters), "distance_evals": int(before.sum())}


def _evaluate_work(args: tuple, outputs: Any) -> Work:
    return {"draw_configs": int(args[0].num_draws) * len(outputs)}


@dataclass(frozen=True)
class Hook:
    """One wrapped target; ``measure`` turns (args, result) into work counts."""

    layer: str
    module: str
    attribute: str
    measure: Optional[Callable[[tuple, Any], Work]] = None


HOOKS: Tuple[Hook, ...] = (
    Hook("gfx.traceio", "repro.gfx.traceio", "load_trace_auto", _load_work),
    Hook("core.features", "repro.core.features", "FeatureExtractor.frame_matrix"),
    Hook("core.normalize", "repro.core.normalize", "Normalizer.fit_transform"),
    Hook("core.leader", "repro.core.cluster_frame", "leader_cluster", _leader_work),
    Hook("core.representatives", "repro.core.cluster_frame", "representative_indices"),
    Hook("core.representatives", "repro.core.cluster_frame", "cluster_sizes"),
    Hook("core.cluster_frame", "repro.core.cluster_frame", "cluster_frame"),
    Hook("core.cluster_frame", "repro.core.cluster_frame", "_compact_labels"),
    Hook("simgpu.batch.precompute", "repro.simgpu.batch", "precompute_frame"),
    Hook("simgpu.precomp_store", "repro.simgpu.precomp_store", "PrecompStore.load"),
    Hook("simgpu.precomp_store", "repro.simgpu.precomp_store", "PrecompStore.publish"),
    Hook("simgpu.batch.evaluate", "repro.simgpu.batch", "simulate_frame_multi", _evaluate_work),
    Hook("runtime.engine", "repro.runtime.engine", "TaskEngine.run"),
    Hook("runtime.cache", "repro.runtime.cache", "ArtifactCache.get"),
    Hook("runtime.cache", "repro.runtime.cache", "ArtifactCache.put"),
    Hook("runtime.keys", "repro.runtime.keys", "trace_digest"),
    Hook("core.pipeline", "repro.core.pipeline", "SubsettingPipeline.run"),
    Hook("core.predict", "repro.core.pipeline", "predict_time_ns"),
    Hook("core.predict", "repro.core.pipeline", "rep_times_from_draw_times"),
    Hook("core.metrics", "repro.core.pipeline", "cluster_quality"),
    Hook("core.phasedetect", "repro.core.pipeline", "detect_phases"),
    Hook("core.phasedetect", "repro.core.phasedetect", "detect_phases"),
    Hook("core.subsetting", "repro.core.pipeline", "build_subset"),
    Hook("core.subsetting", "repro.core.subsetting", "build_subset"),
    Hook("analysis.sweep", "repro.analysis.sweep", "pathfinding_sweep"),
    Hook("analysis.correlation", "repro.analysis.correlation", "subset_parent_correlation"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(hook.layer for hook in HOOKS))

#: Metrics beyond ``<layer>.calls`` / ``<layer>.self_s``, with their units.
EXTRA_METRICS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "gfx.traceio": (("draws_per_s", "draws/s"),),
    "core.leader": (
        ("clusters", "count"), ("distance_evals", "count"), ("ns_per_distance_eval", "ns"),
    ),
    "simgpu.precomp_store": (
        ("hits", "count"), ("misses", "count"), ("publishes", "count"),
        ("hit_ratio", "fraction"),
    ),
    "simgpu.batch.evaluate": (("draw_configs", "count"), ("ns_per_draw_config", "ns")),
    "runtime.engine": (("worker_busy_s", "s"), ("parallel_efficiency", "fraction")),
    "runtime.cache": (("hit_ratio", "fraction"), ("bytes_written_mb", "MB")),
}

TRACE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.attributed_pct", "%"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced op reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for suffix, unit in EXTRA_METRICS.get(layer, ()):
            units[f"{layer}.{suffix}"] = unit
    units.update(TRACE_METRICS)
    return units


# -- installing -------------------------------------------------------------


def _resolve(hook: Hook) -> Tuple[Any, str, Any]:
    """(owner, name, current value) of a target; raises if it is gone."""
    owner: Any = importlib.import_module(hook.module)
    *path, name = hook.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


_local = threading.local()


@contextmanager
def bench_span(name: str, **args: Any) -> Iterator[Any]:
    """A benchmark span on the ambient tracer, linked to its enclosing one.

    Program span ids repeat across tasks run by one pool worker, so
    benchmark spans carry their own ``uid`` and the ``parent`` uid of the
    enclosing benchmark span.  A worker task's outermost span has none and
    records ``root_parent``, the op-process span id the engine rooted the
    task at.  Stacks are kept per tracer, and every task has its own.
    """
    tracer = current_tracer()
    stacks = _local.__dict__.setdefault("stacks", weakref.WeakKeyDictionary())
    stack = stacks.setdefault(tracer, [])
    uid = uuid.uuid4().hex
    link = (
        {"parent": stack[-1]} if stack
        else {"root_parent": getattr(tracer, "root_parent_id", None)}
    )
    with tracer.span(name, category=CATEGORY, uid=uid, **link, **args) as span:
        stack.append(uid)
        try:
            yield span
        finally:
            stack.pop()


def _wrap(hook: Hook, original: Callable) -> Callable:
    layer, measure = hook.layer, hook.measure

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with bench_span(layer, target=hook.attribute) as span:
            result = original(*args, **kwargs)
        if measure is not None:
            # Counted after the span closes, so counting is not layer time.
            span.set(**measure(args, result))
        return result

    return wrapper


@contextmanager
def installed(hooks: Sequence[Hook] = HOOKS) -> Iterator[Set[str]]:
    """Patch every resolvable target; yields the layers with a missing target.

    Every patched target is restored on exit, even when the body raises.
    """
    missing: Set[str] = set()
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for hook in hooks:
            try:
                owner, name, original = _resolve(hook)
            except (ImportError, AttributeError, KeyError) as exc:
                print(
                    f"[e2e] warning: hook {hook.layer} -> {hook.module}.{hook.attribute} "
                    f"does not resolve ({exc!r}); its layer is reported as null",
                    file=sys.stderr,
                )
                missing.add(hook.layer)
                continue
            setattr(owner, name, _wrap(hook, original))
            patched.append((owner, name, original))
        yield missing
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


# -- attribution ------------------------------------------------------------


def _covered_ns(parent: Any, children: Sequence[Any]) -> int:
    """Length of the union of the children's intervals inside ``parent``."""
    start, end = parent.start_ns, parent.start_ns + parent.duration_ns
    intervals = sorted(
        (max(c.start_ns, start), min(c.start_ns + c.duration_ns, end)) for c in children
    )
    covered, reach = 0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(
    spans: Sequence[Any],
    counters: Mapping[str, int],
    jobs: int,
    cache_bytes: int,
    missing: Set[str],
) -> Tuple[float, Dict[str, Optional[float]]]:
    """(root span seconds, every per-layer metric but ``trace.overhead_pct``).

    ``spans`` are all spans of one traced op, ``counters`` the runtime's
    program counters (``runtime.metrics``), ``cache_bytes`` the artifact
    cache's size on disk after the op.
    """
    bench = {s.args["uid"]: s for s in spans if s.category == CATEGORY}
    roots = [s for s in bench.values() if s.name == ROOT]
    # Program span ids are unique within the op process only.
    op_spans = {s.span_id: s for s in spans if roots and s.pid == roots[0].pid}
    children: Dict[str, List[Any]] = {uid: [] for uid in bench}
    for span in bench.values():
        parent = span.args.get("parent")
        program_id = span.args.get("root_parent")
        while parent is None and program_id in op_spans:
            ancestor = op_spans[program_id]
            if ancestor.category == CATEGORY:
                parent = ancestor.args["uid"]
            program_id = ancestor.parent_id
        if parent is not None:
            children[parent].append(span)
    self_ns = {uid: s.duration_ns - _covered_ns(s, children[uid]) for uid, s in bench.items()}

    calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    layer_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    work: Dict[str, int] = {}
    engine_ns = 0
    for uid, span in bench.items():
        if span.name not in calls:
            continue
        calls[span.name] += 1
        layer_ns[span.name] += self_ns[uid]
        for key in ("draws", "clusters", "distance_evals", "draw_configs"):
            work[key] = work.get(key, 0) + int(span.args.get(key, 0))
        if span.args.get("target") == "TaskEngine.run":
            engine_ns += span.duration_ns
    busy_ns = sum(s.duration_ns for s in spans if s.name.startswith("task:"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.self_s"] = layer_ns[layer] / 1e9
    store_hits = counters.get("precomp_store_hits", 0)
    store_misses = counters.get("precomp_store_misses", 0)
    cache_hits = counters.get("cache_hits", 0)
    cache_misses = counters.get("cache_misses", 0)
    values.update({
        "gfx.traceio.draws_per_s": ratio(work.get("draws", 0), layer_ns["gfx.traceio"] / 1e9),
        "core.leader.clusters": work.get("clusters", 0),
        "core.leader.distance_evals": work.get("distance_evals", 0),
        "core.leader.ns_per_distance_eval": ratio(
            layer_ns["core.leader"], work.get("distance_evals", 0)
        ),
        "simgpu.precomp_store.hits": store_hits,
        "simgpu.precomp_store.misses": store_misses,
        "simgpu.precomp_store.publishes": counters.get("precomp_store_publishes", 0),
        "simgpu.precomp_store.hit_ratio": ratio(store_hits, store_hits + store_misses),
        "simgpu.batch.evaluate.draw_configs": work.get("draw_configs", 0),
        "simgpu.batch.evaluate.ns_per_draw_config": ratio(
            layer_ns["simgpu.batch.evaluate"], work.get("draw_configs", 0)
        ),
        "runtime.engine.worker_busy_s": busy_ns / 1e9,
        "runtime.engine.parallel_efficiency": ratio(busy_ns, jobs * engine_ns),
        "runtime.cache.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "runtime.cache.bytes_written_mb": cache_bytes / 2**20,
    })
    for name in list(values):
        if name.rsplit(".", 1)[0] in missing:
            values[name] = None

    root_ns = sum(s.duration_ns for s in roots)
    unattributed_ns = sum(self_ns[s.args["uid"]] for s in roots)
    values["trace.attributed_pct"] = 100.0 * ratio(root_ns - unattributed_ns, root_ns)
    values["trace.unattributed_s"] = unattributed_ns / 1e9
    return root_ns / 1e9, values
