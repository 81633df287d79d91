"""Task vocabulary for the runtime engine.

A :class:`Task` is one unit of pipeline work: simulate a range of
frames (per-draw outputs or frame totals) or cluster a range of frames.
Task *functions* are module-level (so worker processes can resolve them
by kind name after a fork/spawn) and registered in
:data:`TASK_FUNCTIONS`; they receive the run's shared ``context``
(shipped once per worker, not once per task — the trace is the heavy
part) and their payload, and return their value.

Task bodies run under an ambient :class:`repro.obs.ObsContext`: the
counters, histograms and nested spans they record land in the parent's
registry directly when executing inline, or in a worker-local registry
that ships back inside a :class:`TaskResult` when executing in a pool
worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.context import current_obs


@dataclass(frozen=True)
class TaskResult:
    """A pool worker's reply: the task's value and what the worker observed.

    ``metrics`` is the worker-local registry's dump and ``spans`` the
    spans recorded in the worker; the engine folds both into the
    parent's ``ObsContext``.  Task functions never build one.
    """

    value: Any
    metrics: Optional[Mapping[str, Any]] = None
    spans: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class Task:
    """One independent unit of a fan-out.

    ``task_id`` labels the task's ``task:<kind>`` span and names it in
    errors; values come back by position.  A task that needs randomness
    carries its seed in ``payload`` (the clustering ``seed`` parameter
    does).  Tasks are not cached one by one:
    :class:`~repro.runtime.engine.Runtime` caches whole artifacts.
    """

    task_id: str
    kind: str
    payload: Any = None


TaskFunction = Callable[[Any, Any], Any]

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


@task_function("simulate_frame_range")
def _simulate_frame_range(context: Any, payload: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Simulate frames ``[start, stop)`` of the context trace on N configs.

    All configs are evaluated in one
    :func:`repro.simgpu.batch.simulate_frame_range_multi` call, so the
    order-dependent context rows (texture warmth, switch penalties) are
    computed once per distinct warm capacity and switch-cost triple.

    ``payload`` optionally carries the phase label (the runtime's stage
    name, e.g. ``ground_truth``); simulated-frame counts are recorded as
    ``frames_simulated{phase=...}`` on the ambient metrics registry.
    """
    from repro.simgpu.batch import simulate_frame_range_multi

    trace = context
    configs, start, stop, phase = payload
    per_config = simulate_frame_range_multi(trace, configs, start, stop)
    _count_frames(configs, start, stop, phase)
    return tuple(tuple(outputs) for outputs in per_config)


@task_function("simulate_frame_times")
def _simulate_frame_times(context: Any, payload: Any) -> Any:
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
    return times


def _count_frames(configs: Tuple[Any, ...], start: int, stop: int, phase: str) -> None:
    current_obs().metrics.inc(
        "frames_simulated", (stop - start) * len(configs), phase=phase
    )


@task_function("cluster_frame_range")
def _cluster_frame_range(context: Any, payload: Any) -> Tuple[Any, ...]:
    """Cluster frames ``[start, stop)`` of the context trace.

    Records the cluster-count and cluster-size distributions
    (``frame_cluster_count``, ``cluster_size`` histograms) and the
    ``frames_clustered`` count on the ambient metrics registry.
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
        metrics.observe_many("cluster_size", clustering.weights.tolist())
        clusterings.append(clustering)
    metrics.inc("frames_clustered", stop - start)
    return tuple(clusterings)
