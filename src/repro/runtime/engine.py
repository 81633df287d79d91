"""Flat fan-out task engine and the user-facing :class:`Runtime`.

The engine runs a list of independent tasks either inline (``jobs=1`` —
the serial fallback, bit-identical to the pre-runtime code paths) or on
a ``ProcessPoolExecutor``, and returns their values in submission
order.  The run's shared ``context`` (typically the trace) ships to
each worker once via the pool initializer instead of once per task.
Tasks carry no seed and the engine touches no global RNG: task bodies
draw only from generators built from explicit seeds in their payload
(``repro.util.rng.make_rng``; DET001 gates the global stream), so
results never depend on worker count or completion order.

Observability rides the same rails: each task runs under an ambient
:class:`~repro.obs.context.ObsContext`, inside a ``task:<kind>`` span,
and observes its wall time as ``task_wall_s{kind=<kind>}``.  Inline
tasks record straight into the parent's tracer and metrics; pool tasks
record into a worker-local pair — rooted at the span id the parent
captured at submit time — and ship the metrics dump and spans back
inside a :class:`~repro.runtime.tasks.TaskResult`, which the parent
folds into its own pair.

:class:`Runtime` bundles an engine, a content-addressed
:class:`~repro.runtime.cache.ArtifactCache`, and one ``ObsContext``
into the object the pipeline, suite, sweep, and CLI layers thread
through.  :meth:`Runtime.stage` times a named stage as a ``stage``
span plus a ``stage_s{stage=<name>}`` observation; run records and
:func:`summary_line` roll those up.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.errors import ConfigError
from repro.obs.context import ObsContext, activate_obs
from repro.obs.metrics import Metrics, MetricsSnapshot
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.obs.spans import NULL_TRACER, Tracer
from repro.runtime.cache import CACHE_MISS, ArtifactCache, NullCache
from repro.runtime.keys import config_digest, task_key
from repro.runtime.tasks import Task, TaskResult, resolve_task_function

if TYPE_CHECKING:
    from repro.gfx.trace import Trace
    from repro.simgpu.batch import BatchFrameOutput
    from repro.simgpu.config import GpuConfig
    from repro.simgpu.simulator import TraceResult

_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_task(obs: ObsContext, context: Any, task: Task) -> Any:
    """Execute one task body under ``obs`` (same code inline and in workers).

    The body runs inside a ``task:<kind>`` span, and its wall time lands
    in the ``task_wall_s{kind=<kind>}`` histogram once it returns.
    """
    fn = resolve_task_function(task.kind)
    start = time.perf_counter()
    with activate_obs(obs):
        with obs.tracer.span(
            f"task:{task.kind}", category="task", task_id=task.task_id
        ):
            value = fn(context, task.payload)
    obs.metrics.observe("task_wall_s", time.perf_counter() - start, kind=task.kind)
    return value


def _execute_in_worker(blob: bytes) -> TaskResult:
    # The work item arrives pre-pickled: the parent serializes it before
    # submit so an unpicklable payload raises there, synchronously, instead
    # of poisoning the executor's feeder thread (which deadlocks
    # ``shutdown(wait=True)`` on CPython 3.11).
    task, parent_span_id, trace_on = pickle.loads(blob)
    tracer = Tracer(root_parent_id=parent_span_id) if trace_on else NULL_TRACER
    obs = ObsContext(tracer=tracer)
    value = _run_task(obs, _WORKER_CONTEXT, task)
    return TaskResult(value, obs.metrics.dump(), tuple(tracer.drain()))


class TaskEngine:
    """Runs a list of independent tasks serially or on a process pool.

    ``jobs=1`` runs every task inline in submission order — no
    subprocesses, no pickling — and is the reference behavior the
    parallel path must reproduce exactly (results, counters, and span
    counts alike).  Counters, histograms and spans land in ``obs``.
    """

    def __init__(
        self,
        jobs: int = 1,
        obs: Optional[ObsContext] = None,
        progress: Optional[Union[ProgressReporter, NullProgress]] = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ConfigError(f"jobs must be an int >= 1, got {jobs!r}")
        self.jobs = jobs
        self.obs = obs if obs is not None else ObsContext()
        self.progress = progress if progress is not None else NULL_PROGRESS

    # -- execution ---------------------------------------------------------

    def run(self, tasks: Sequence[Task], context: Any = None) -> List[Any]:
        """Execute ``tasks`` and return their values in submission order.

        A task exception propagates to the caller with its original
        type; remaining tasks are cancelled.  Progress reports count the
        tasks and the frames simulated since this call began.
        """
        if not tasks:
            return []
        frames_before = self._frames_total()
        self.progress.begin(len(tasks))
        if self.jobs == 1 or len(tasks) == 1:
            # One task gains nothing from a pool: spinning up a worker
            # process costs orders of magnitude more than the inline
            # dispatch, and the inline path is the reference behavior
            # anyway.
            values = self._run_serial(tasks, context, frames_before)
        else:
            values = self._run_pool(tasks, context, frames_before)
        self.progress.finish(
            len(tasks), len(tasks), self._frames_total() - frames_before
        )
        return values

    def _frames_total(self) -> int:
        return self.obs.metrics.counter_total("frames_simulated")

    def _run_serial(
        self, tasks: Sequence[Task], context: Any, frames_before: int
    ) -> List[Any]:
        values: List[Any] = []
        for done, task in enumerate(tasks, start=1):
            try:
                values.append(_run_task(self.obs, context, task))
            except Exception:
                self.obs.metrics.inc("tasks_failed")
                raise
            self.obs.metrics.inc("tasks_run")
            self.progress.task_done(
                done, len(tasks), self._frames_total() - frames_before
            )
        return values

    def _run_pool(
        self, tasks: Sequence[Task], context: Any, frames_before: int
    ) -> List[Any]:
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(tasks)),
            initializer=_init_worker,
            initargs=(context,),
        )
        futures: Dict[Future[TaskResult], int] = {}
        values: List[Any] = [None] * len(tasks)
        tracer, metrics = self.obs.tracer, self.obs.metrics
        total = len(tasks)
        finished = 0
        heartbeat_s = self.progress.heartbeat_interval_s
        try:
            for index, task in enumerate(tasks):
                try:
                    blob = pickle.dumps(
                        (task, tracer.current_span_id(), tracer.enabled)
                    )
                except Exception as exc:
                    raise ConfigError(
                        f"task {task.task_id!r} payload cannot be sent to a "
                        f"worker process: {exc}"
                    ) from exc
                futures[pool.submit(_execute_in_worker, blob)] = index
            while futures:
                done, _ = wait(
                    set(futures),
                    timeout=heartbeat_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Workers are still heads-down past the heartbeat
                    # interval: surface liveness rather than going dark.
                    self.progress.heartbeat(
                        finished, total, self._frames_total() - frames_before
                    )
                    continue
                for future in done:
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except Exception:
                        metrics.inc("tasks_failed")
                        raise
                    metrics.merge(result.metrics)
                    tracer.merge(result.spans)
                    values[index] = result.value
                    metrics.inc("tasks_run")
                    finished += 1
                    self.progress.task_done(
                        finished, total, self._frames_total() - frames_before
                    )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return values


def _chunk_ranges(num_items: int, num_chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_items)`` into contiguous near-equal ranges."""
    num_chunks = max(1, min(num_chunks, num_items))
    base, extra = divmod(num_items, num_chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Runtime:
    """Parallel, cache-aware execution facade for the pipeline layers.

    The default construction (``Runtime()``) is the zero-surprise
    configuration: one process, no cache, results bit-identical to
    the historical serial code paths.  ``jobs=N`` is
    the most worker processes a run may use, and ``jobs="auto"`` sets it
    to the CPUs this process may run on.  Either way each fan-out gets
    as many tasks as its work pays for (:meth:`_ranges`), so one too
    small to pay for pool start-up and pickling runs inline (results are
    identical either way — only the execution strategy adapts).
    ``cache_dir=...`` adds the content-addressed artifact store, so
    repeated experiments and interrupted sweeps skip every
    already-computed simulation.

    ``tracer=Tracer()`` enables hierarchical span tracing; the default
    :data:`~repro.obs.spans.NULL_TRACER` makes every span a no-op.
    ``metrics`` is the registry every counter and histogram of the run
    lands in, the artifact cache's hit and miss counts included (a fresh
    one by default).

    An entry point (a CLI subcommand, a service job, a benchmark, a
    test) builds one and hands it to every layer below; library code
    takes the caller's runtime and never builds its own.
    """

    #: Most frame ranges per worker process in one fan-out.
    CHUNKS_PER_JOB = 2

    #: Least draw x config evaluations one simulation task carries: half
    #: the break-even size from which ``jobs=2`` beats ``jobs=1`` on wall
    #: time, so a pooled fan-out has at least 2 tasks.  Three runs of
    #: ``benchmarks/bench_fanout_floors.py`` (``frame_times_many`` on
    #: ``bioshock2_like``, 2-vCPU host, compiled kernels) put it at 9.8M,
    #: 10.0M and 20.0M; the floor halves the median.  Inline against
    #: pooled read 0.066 vs 0.081 s at 4.85M and 0.343 vs 0.245 s at
    #: 39.3M (medians), and the pool never saved CPU (docs/RUNTIME.md,
    #: "Fan-out sizing").
    MIN_TASK_DRAW_CONFIGS = 5_000_000

    #: Least draws one clustering task carries, set the same way from
    #: ``cluster_frames`` on ``bioshock1_like``: the runs put the
    #: break-even at 32,231, 24,608 and 45,782 draws.  Inline against
    #: pooled read 0.101 vs 0.136 s at 18,291 draws and 0.166 vs 0.159 s
    #: at 32,231 (medians).
    MIN_TASK_DRAWS = 16_000

    def __init__(
        self,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[object] = None,
        progress: Optional[Union[ProgressReporter, NullProgress]] = None,
    ) -> None:
        if jobs == "auto":
            jobs = available_cpus()
        self.obs = ObsContext(
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics if metrics is not None else Metrics(),
        )
        self.cache: Union[ArtifactCache, NullCache] = (
            ArtifactCache(cache_dir, metrics=self.obs.metrics)
            if cache_dir is not None
            else NullCache()
        )
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.engine = TaskEngine(jobs=jobs, obs=self.obs, progress=self.progress)

    @property
    def jobs(self) -> int:
        return self.engine.jobs

    @property
    def tracer(self) -> Any:
        """The span tracer observability layers record into."""
        return self.obs.tracer

    @property
    def metrics(self) -> Metrics:
        """The labeled metrics registry every layer of the run records into."""
        return self.obs.metrics

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time ``name`` as a stage: a ``stage`` span and one ``stage_s`` value.

        The elapsed wall time is observed into ``stage_s{stage=<name>}``
        even when the body raises.  Stages do not nest; worker time is
        the separate ``task_wall_s`` histogram.
        """
        start = time.perf_counter()
        try:
            with self.tracer.span(name, category="stage"):
                yield
        finally:
            self.metrics.observe("stage_s", time.perf_counter() - start, stage=name)

    # -- chunking ----------------------------------------------------------

    def _ranges(
        self, num_frames: int, work: int, min_task_work: int
    ) -> List[Tuple[int, int]]:
        """Frame ranges for a fan-out of ``work`` units over ``num_frames``.

        One range per ``min_task_work`` units of work, at most ``jobs *
        CHUNKS_PER_JOB``; a single range runs inline (the engine never
        pools one task), so a fan-out too small to pay for the pool
        never starts one.  ``jobs=1`` always gets one range.
        """
        if self.jobs == 1:
            return [(0, num_frames)]
        num_tasks = min(self.jobs * self.CHUNKS_PER_JOB, work // min_task_work)
        return _chunk_ranges(num_frames, max(1, num_tasks))

    # -- simulation --------------------------------------------------------

    def simulate_frames_many(
        self,
        trace: Trace,
        configs: Sequence[GpuConfig],
        label: str = "simulate",
    ) -> List[List[BatchFrameOutput]]:
        """Per-frame outputs of ``trace`` on every config, cache-first.

        The artifact is one ``simulate_frames`` table per trace content,
        one row per config; configs missing from it are simulated
        together in one fan-out, so each chunk evaluates them as one
        config-vectorized pass that computes the order-dependent context
        rows once per distinct capacity and switch-cost triple.
        ``label`` names the stage, its trace span, and the
        ``frames_simulated{phase=...}`` label.
        """
        per_config = self._simulate_per_config(
            trace, configs, label, "simulate_frames", "simulate_frame_range",
            lambda chunks: [out for chunk in chunks for out in chunk],
        )
        return [list(outputs) for outputs in per_config]

    def frame_times_many(
        self,
        trace: Trace,
        configs: Sequence[GpuConfig],
        label: str = "simulate",
    ) -> np.ndarray:
        """Frame totals of ``trace`` on every config: ``(len(configs), num_frames)``.

        Row ``i`` equals ``[out.time_ns for out in
        simulate_frames(trace, configs[i])]`` bit for bit, but per-draw
        detail is never shipped from workers or written to the cache:
        the artifact is one ``frame_times`` table per trace content
        whose rows are ``(num_frames,)`` float64 arrays, one per config,
        so an interrupted or extended sweep still simulates only the
        missing candidates.
        """
        rows = self._simulate_per_config(
            trace, configs, label, "frame_times", "simulate_frame_times",
            lambda chunks: np.concatenate(chunks),
        )
        if not rows:
            return np.empty((0, trace.num_frames))
        return np.stack(rows)

    def _simulate_per_config(
        self,
        trace: Trace,
        configs: Sequence[GpuConfig],
        label: str,
        key_kind: str,
        task_kind: str,
        join: Callable[[List[Any]], Any],
    ) -> List[Any]:
        """One cached table per (trace, kind): look up, dedupe, fan out, put.

        The ``key_kind`` table maps :func:`config_digest` to a config's
        value.  Rows it holds are read back; the rest (each distinct
        digest once) are simulated together by ``task_kind`` tasks, one
        per frame range.  A task's value holds one entry per simulated
        config, and ``join`` concatenates a config's entries over the
        ranges into its row.
        """
        key = task_key(key_kind, trace=trace)
        rows = [config_digest(config) for config in configs]
        table = self._table(key)
        need: Dict[str, GpuConfig] = {}
        for row, config in zip(rows, configs):
            if row not in table:
                need.setdefault(row, config)
        if need:
            need_configs = tuple(need.values())
            ranges = self._ranges(
                trace.num_frames,
                trace.num_draws * len(need_configs),
                self.MIN_TASK_DRAW_CONFIGS,
            )
            tasks = [
                Task(
                    task_id=f"{label}:{start}:{stop}",
                    kind=task_kind,
                    payload=(need_configs, start, stop, label),
                )
                for start, stop in ranges
            ]
            self._prepublish_precomp(trace, len(tasks))
            with self.stage(label):
                values = self.engine.run(tasks, context=trace)
            fresh = {
                row: join([chunk[position] for chunk in values])
                for position, row in enumerate(need)
            }
            # Re-read and merge right before the put, so rows another
            # writer added during the fan-out survive it.
            table = {**table, **self._table(key), **fresh}
            self.cache.put(key, table)
        return [table[row] for row in rows]

    def _table(self, key: str) -> Dict[str, Any]:
        """The cached table under ``key``; missing or not a dict reads empty."""
        table = self.cache.get(key)
        return table if isinstance(table, dict) else {}

    def _prepublish_precomp(self, trace: "Trace", num_tasks: int) -> None:
        """Hold the trace's precompute in this process before fan-out.

        Fills the digest-keyed precompute memo for every frame (memo,
        then the shared store, then compute-and-publish), so forked
        workers inherit it copy-on-write and load nothing: each frame is
        loaded or computed once per process that runs the fan-outs, not
        once per fan-out.  Only worth doing when the run will actually
        fan out (multiple tasks on a multi-job engine), the store is on,
        *and* a compiled kernel backend is active: the parent's pass is
        serial, so with the pure-python kernels it would cost more than
        letting each worker compute its own chunk.  Under a non-``fork``
        start method workers inherit nothing and read the store.
        """
        if num_tasks <= 1 or self.engine.jobs <= 1:
            return
        from repro.simgpu import _kernels
        from repro.simgpu.batch import prepublish_precomp
        from repro.simgpu.precomp_store import active_store

        if active_store() is None:
            return
        try:
            if _kernels.backend().name == "python":
                return
        except Exception:
            return
        with self.stage("precomp_publish"), activate_obs(self.obs):
            published = prepublish_precomp(trace)
        if published:
            self.metrics.inc("precomp_prepublished_frames", published)

    def simulate_frames(
        self, trace: Trace, config: GpuConfig, label: str = "simulate"
    ) -> List[BatchFrameOutput]:
        """Per-frame :class:`~repro.simgpu.batch.BatchFrameOutput` list."""
        return self.simulate_frames_many(trace, [config], label=label)[0]

    def simulate_trace(
        self, trace: Trace, config: GpuConfig, label: str = "simulate"
    ) -> TraceResult:
        """``trace`` on ``config`` as a :class:`~repro.simgpu.simulator.TraceResult`.

        Packages :meth:`simulate_frames`: per-frame times, cycles and
        pass times, without per-draw costs.
        """
        from repro.simgpu.batch import trace_result_from_outputs

        outputs = self.simulate_frames(trace, config, label=label)
        return trace_result_from_outputs(trace.name, config.name, outputs)

    # -- clustering --------------------------------------------------------

    def cluster_frames(self, trace: Trace, **params: object) -> list:
        """Per-frame clusterings of ``trace``, cache-first.

        ``params`` are forwarded to
        :func:`repro.core.cluster_frame.cluster_frame` verbatim and
        participate in the cache key.
        """
        key = task_key("cluster_frames", trace=trace, params=params)
        hit = self.cache.get(key)
        if hit is not CACHE_MISS:
            return list(hit)
        payload_params = tuple(sorted(params.items()))
        ranges = self._ranges(
            trace.num_frames, trace.num_draws, self.MIN_TASK_DRAWS
        )
        tasks = [
            Task(
                task_id=f"cluster:{start}:{stop}",
                kind="cluster_frame_range",
                payload=(payload_params, start, stop),
            )
            for start, stop in ranges
        ]
        with self.stage("cluster"):
            values = self.engine.run(tasks, context=trace)
        clusterings = [clustering for chunk in values for clustering in chunk]
        self.cache.put(key, clusterings)
        return clusterings


def stage_time_s(snapshot: MetricsSnapshot) -> float:
    """Wall time spent in stages: the ``stage_s`` totals, summed."""
    return sum(snapshot.histogram_totals("stage_s", "stage").values())


def summary_line(snapshot: MetricsSnapshot) -> str:
    """The one-line ``[runtime]`` digest printed under CLI and report output.

    Counts are totals over every label set; ``stage_time`` is
    :func:`stage_time_s`, so task time (inside a stage) never counts
    twice.  A run with no stage at all (every artifact a cache hit
    before any stage opened, or bare engine use) says so explicitly.
    """
    parts = [
        f"tasks={snapshot.counter_total('tasks_run')}",
        f"frames_simulated={snapshot.counter_total('frames_simulated')}",
        f"cache_hits={snapshot.counter_total('cache_hits')}",
        f"cache_misses={snapshot.counter_total('cache_misses')}",
    ]
    if snapshot.histogram_totals("stage_s", "stage"):
        parts.append(f"stage_time={stage_time_s(snapshot):.2f}s")
    else:
        parts.append("no stages recorded")
    return "[runtime] " + " ".join(parts)
