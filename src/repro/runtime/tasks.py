"""Task vocabulary for the runtime engine.

A :class:`Task` is one unit of pipeline work: simulate a range of
frames, cluster a range of frames, or call an arbitrary function.  Task
*functions* are module-level (so worker processes can resolve them by
kind name after a fork/spawn) and registered in :data:`TASK_FUNCTIONS`;
they receive the run's shared ``context`` (shipped once per worker, not
once per task — the trace is the heavy part), their payload, and the
results of their dependencies, and return a :class:`TaskResult` whose
counters the engine folds into telemetry in the parent process.

Task bodies also run under an ambient :class:`repro.obs.ObsContext`:
labeled metrics and nested spans they record land in the parent's
registry directly when executing inline, or in a worker-local registry
that ships back inside the :class:`TaskResult` (``timers``, ``metrics``,
``spans``) when executing in a pool worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.context import current_obs


@dataclass(frozen=True)
class TaskResult:
    """A task function's return value plus its observability payload.

    ``counters`` is the legacy unlabeled counter report; ``timers``
    carries worker-side stage timers (merged via
    :meth:`~repro.runtime.telemetry.Telemetry.merge_timers`),
    ``metrics`` a worker registry dump (labeled counters/histograms),
    and ``spans`` the spans recorded inside the worker.  Task functions
    only ever fill ``value`` and ``counters``; the engine's worker
    wrapper attaches the rest.
    """

    value: Any
    counters: Mapping[str, int] = field(default_factory=dict)
    timers: Mapping[str, float] = field(default_factory=dict)
    metrics: Optional[Mapping[str, Any]] = None
    spans: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class Task:
    """One node of a dependency-aware task graph.

    ``seed``, when set, seeds numpy's legacy global RNG in the worker
    before the task body runs (derive it with
    :func:`repro.util.rng.spawn_worker_seed` so it depends on the task's
    identity, never on scheduling).  ``cache_key`` marks the task's
    result as a content-addressed artifact: the engine consults the
    cache before running it and persists the value afterwards.
    """

    task_id: str
    kind: str
    payload: Any = None
    deps: Tuple[str, ...] = ()
    cache_key: Optional[str] = None
    seed: Optional[int] = None


TaskFunction = Callable[[Any, Any, Dict[str, Any]], TaskResult]

TASK_FUNCTIONS: Dict[str, TaskFunction] = {}


def task_function(kind: str) -> Callable[[TaskFunction], TaskFunction]:
    """Register a task function under ``kind`` (importable module scope).

    Registration happens at import time, so any module that defines task
    kinds must be imported in the worker as well — the built-in kinds
    live here; test/extension kinds rely on the fork start method or on
    the engine pickling the submission closure's imports.
    """

    def register(fn: TaskFunction) -> TaskFunction:
        if kind in TASK_FUNCTIONS:
            raise ConfigError(f"task kind {kind!r} is already registered")
        TASK_FUNCTIONS[kind] = fn
        return fn

    return register


def resolve_task_function(kind: str) -> TaskFunction:
    try:
        return TASK_FUNCTIONS[kind]
    except KeyError:
        known = ", ".join(sorted(TASK_FUNCTIONS))
        raise ConfigError(
            f"unknown task kind {kind!r}; registered kinds: {known}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in task kinds
# ---------------------------------------------------------------------------


@task_function("call")
def _call(context: Any, payload: Any, deps: Dict[str, Any]) -> TaskResult:
    """Generic escape hatch: ``payload = (fn, args)``, returns ``fn(*args)``."""
    fn, args = payload
    return TaskResult(fn(*args))


@task_function("call_with_deps")
def _call_with_deps(context: Any, payload: Any, deps: Dict[str, Any]) -> TaskResult:
    """Like ``call`` but passes the dependency results as ``fn(deps, *args)``."""
    fn, args = payload
    return TaskResult(fn(deps, *args))


@task_function("simulate_frame_range")
def _simulate_frame_range(
    context: Any, payload: Any, deps: Dict[str, Any]
) -> TaskResult:
    """Simulate frames ``[start, stop)`` of the context trace on N configs.

    All configs are evaluated in one task so the order-dependent context
    rows (texture warmth, switch penalties) are computed once per
    distinct warm capacity and switch-cost triple, exactly as in a
    serial :func:`repro.simgpu.batch.simulate_trace_multi` sweep.

    ``payload`` optionally carries the phase label (the runtime's stage
    name, e.g. ``ground_truth``); simulated-frame counts are recorded as
    ``frames_simulated{phase=...}`` on the ambient metrics registry.
    """
    from repro.simgpu.batch import simulate_frame_range_multi

    trace = context
    configs, start, stop, phase = payload
    per_config = simulate_frame_range_multi(trace, configs, start, stop)
    _count_frames(configs, start, stop, phase)
    return TaskResult(tuple(tuple(outputs) for outputs in per_config))


@task_function("simulate_frame_times")
def _simulate_frame_times(
    context: Any, payload: Any, deps: Dict[str, Any]
) -> TaskResult:
    """Frame totals of ``[start, stop)`` of the context trace on N configs.

    The same payload and evaluation as ``simulate_frame_range``, but the
    value is one ``(len(configs), stop - start)`` float64 array of frame
    times: per-draw detail never leaves the worker.
    """
    from repro.simgpu.batch import simulate_frame_times_multi

    trace = context
    configs, start, stop, phase = payload
    times = simulate_frame_times_multi(trace, configs, start, stop)
    _count_frames(configs, start, stop, phase)
    return TaskResult(times)


def _count_frames(configs: Tuple[Any, ...], start: int, stop: int, phase: str) -> None:
    current_obs().metrics.inc(
        "frames_simulated", (stop - start) * len(configs), phase=phase
    )


@task_function("cluster_frame_range")
def _cluster_frame_range(
    context: Any, payload: Any, deps: Dict[str, Any]
) -> TaskResult:
    """Cluster frames ``[start, stop)`` of the context trace.

    Records the cluster-count and cluster-size distributions
    (``frame_cluster_count``, ``cluster_size`` histograms) on the
    ambient metrics registry.
    """
    from repro.core.cluster_frame import cluster_frame
    from repro.core.features import FeatureExtractor

    trace = context
    params, start, stop = payload
    extractor = FeatureExtractor(trace)
    metrics = current_obs().metrics
    clusterings = []
    for i in range(start, stop):
        clustering = cluster_frame(
            extractor.frame_matrix(trace.frames[i]), **dict(params)
        )
        metrics.observe("frame_cluster_count", clustering.num_clusters)
        for weight in clustering.weights:
            metrics.observe("cluster_size", float(weight))
        clusterings.append(clustering)
    return TaskResult(tuple(clusterings), {"frames_clustered": stop - start})
