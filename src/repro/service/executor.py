"""Job executor: drains the persistent queue through the runtime engine.

Worker threads pull job ids off an in-process queue, load the persisted
record, and run the named work through :class:`~repro.runtime.engine.Runtime`
— the same engine the CLI uses, so service jobs get the artifact cache,
process-pool parallelism, and observability for free.

Deduplication is two-level, both content-addressed on
:meth:`~repro.service.specs.JobSpec.job_key`:

* **In-flight coalescing** — a submission whose key matches a queued or
  running job becomes a *follower*: it gets its own persisted record
  (``coalesced_with`` naming the primary) but is never enqueued; when
  the primary finishes, its outcome is copied onto every follower.  Two
  concurrent identical submissions therefore cost one computation.
* **Warm artifacts** — a submission whose twin already *completed* runs
  again, but every simulation artifact is already in the
  content-addressed cache, so the rerun is pure cache hits (visible as
  ``counter:cache_hits`` in the job's metrics with no new
  ``frames_simulated``).

Each finished job appends a run record through the shared
:func:`~repro.obs.history.record_run` hook (command ``service:<kind>``),
so ``repro runs regress`` and ``repro trace report`` gate service
traffic exactly like CLI traffic.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError, ValidationError
from repro.obs.context import ObsContext
from repro.obs.history import flatten_metrics, record_run
from repro.obs.metrics import Metrics
from repro.obs.spans import NULL_TRACER
from repro.runtime.engine import Runtime
from repro.service.events import EventBus
from repro.service.jobs import JobRecord, JobStore, new_job
from repro.service.specs import JobSpec

#: Default bound on jobs waiting to run (primaries only; followers and
#: running jobs don't occupy queue slots).
DEFAULT_QUEUE_LIMIT = 64


class QueueFullError(ReproError):
    """The job queue is at capacity; the API maps this to 429."""


class JobConflictError(ReproError):
    """The requested transition is illegal for the job's current state."""


class _JobProgress:
    """Progress sink mirroring engine callbacks into the job record.

    Implements the reporter interface the task engine drives (``begin``
    / ``task_done`` / ``heartbeat`` / ``finish``) and forwards the
    counts into the job's persisted ``progress`` dict (throttled — at
    most one store write per second) plus live service gauges, so a
    client polling ``GET /v1/jobs/{id}`` watches the run move.
    """

    #: The engine only heartbeats when a progress sink asks for it.
    heartbeat_interval_s: Optional[float] = None

    _WRITE_INTERVAL_S = 1.0

    def __init__(
        self,
        store: JobStore,
        record: JobRecord,
        metrics: Metrics,
        events: Optional[EventBus] = None,
    ) -> None:
        self._store = store
        self._record = record
        self._metrics = metrics
        self._events = events
        self._last_write = 0.0

    def begin(self, total: int) -> None:
        self._update(0, total, 0, force=True)

    def task_done(self, done: int, total: int, frames: int) -> None:
        self._update(done, total, frames)

    def heartbeat(self, done: int, total: int, frames: int) -> None:
        self._update(done, total, frames)

    def finish(self, done: int, total: int, frames: int) -> None:
        self._update(done, total, frames, force=True)

    def _update(
        self, done: int, total: int, frames: int, force: bool = False
    ) -> None:
        self._record.progress = {
            "tasks_done": float(done),
            "tasks_total": float(total),
            "frames_simulated": float(frames),
        }
        self._metrics.gauge(
            "service_job_tasks_done", done, job=self._record.job_id
        )
        now = time.monotonic()
        if force or now - self._last_write >= self._WRITE_INTERVAL_S:
            self._last_write = now
            self._store.update(self._record)
            # Progress events ride the store-write throttle, so the SSE
            # stream sees at most one gauge per second per job too.
            if self._events is not None:
                self._events.publish(
                    "progress",
                    job_id=self._record.job_id,
                    kind=self._record.kind,
                    tasks_done=float(done),
                    tasks_total=float(total),
                    frames_simulated=float(frames),
                )


class JobExecutor:
    """Owns the worker pool, the in-flight index, and job execution.

    ``workers`` sets service-level concurrency (jobs running at once);
    ``sim_jobs`` is forwarded to each job's :class:`Runtime` and sets
    simulation-level parallelism within a job.  ``cache_dir=None``
    disables the artifact cache (tests that must simulate every time);
    the common configuration points every job at one shared directory so
    identical work re-submitted later is all cache hits.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        sim_jobs: Union[int, str] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        run_store: Optional[Union[str, Path]] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Any] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValidationError(f"workers must be an int >= 1, got {workers!r}")
        if (
            not isinstance(queue_limit, int)
            or isinstance(queue_limit, bool)
            or queue_limit < 1
        ):
            raise ValidationError(
                f"queue_limit must be an int >= 1, got {queue_limit!r}"
            )
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.sim_jobs = sim_jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.run_store = run_store
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Typed push channel for /v1/events; every lifecycle transition
        #: below also lands here.  Always present so callers can
        #: subscribe without None-guards; fan-out to zero subscribers
        #: is a no-op.
        self.events = events if events is not None else EventBus()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        #: job_key -> primary job id, for queued/running jobs only.
        self._inflight: Dict[str, str] = {}
        #: primary job id -> follower job ids awaiting its outcome.
        self._followers: Dict[str, List[str]] = {}
        self._queued_count = 0
        #: job_id -> sidecar sections produced by the job body, held
        #: until _finish hands them to record_run (worker-local handoff;
        #: written and popped on the same worker thread).
        self._pending_artifacts: Dict[str, Dict[str, Any]] = {}
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> Dict[str, List[str]]:
        """Recover the store, re-enqueue survivors, start the workers.

        Returns ``{"requeued": [...], "interrupted": [...]}`` — what the
        crash-recovery pass did, for the server's startup log line.
        """
        if self._started:
            raise ValidationError("executor already started")
        self._started = True
        requeued, interrupted = self.store.recover()
        # Scan the backlog before taking the lock and persist any
        # coalescing rewrites after releasing it: the store scan and
        # updates are file I/O, and the critical section must stay
        # in-memory (CONC003).  Deferring the writes is safe because the
        # workers that would read these records start further down.
        backlog = self.store.records(state="queued")
        rewrites: List[JobRecord] = []
        with self._lock:
            for record in backlog:
                if self._inflight.get(record.job_key) == record.job_id:
                    # Already indexed (submitted to this executor before
                    # start); don't enqueue it twice.
                    continue
                if record.coalesced_with is not None:
                    primary = self._inflight.get(record.job_key)
                    if primary is not None:
                        siblings = self._followers.setdefault(primary, [])
                        if record.job_id not in siblings:
                            record.coalesced_with = primary
                            rewrites.append(record)
                            siblings.append(record.job_id)
                        continue
                    # The primary finished (or vanished) while we were
                    # down: run the follower itself.
                    record.coalesced_with = None
                    rewrites.append(record)
                self._inflight[record.job_key] = record.job_id
                self._queued_count += 1
                self._queue.put(record.job_id)
        for record in rewrites:
            self.store.update(record)
        self._set_depth_gauges()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return {
            "requeued": [r.job_id for r in requeued],
            "interrupted": [r.job_id for r in interrupted],
        }

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting work and join the workers.

        Jobs already running finish; jobs still queued stay ``queued``
        in the store and are picked up by the next boot's recovery scan.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    def join_idle(self, timeout: float = 60.0, poll_s: float = 0.02) -> bool:
        """Block until no job is queued or running (tests; best-effort)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    return True
            time.sleep(poll_s)
        return False

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Persist and enqueue ``spec``; returns the new record.

        A spec matching an in-flight job comes back as a follower record
        (``coalesced_with`` set) that will receive the primary's outcome
        without computing anything.  Raises :class:`QueueFullError` when
        ``queue_limit`` primaries are already waiting.
        """
        job_key = spec.job_key()
        with self._lock:
            if self._stopping:
                raise ValidationError("service is shutting down")
            self.metrics.inc("service_jobs_submitted", kind=spec.kind)
            primary_id = self._inflight.get(job_key)
            if primary_id is not None:
                record = new_job(job_key, spec.kind, spec.canonical())
                record.coalesced_with = primary_id
                # Persisting under the lock is deliberate: the record
                # create and the follower-index insert must be atomic,
                # or a primary finishing in between would miss this
                # follower.  The write is one small exclusive-create
                # JSON file — bounded, unlike a store scan.
                self.store.create(record)  # repro: noqa[CONC003]
                self._followers.setdefault(primary_id, []).append(
                    record.job_id
                )
                self.metrics.inc("service_jobs_coalesced", kind=spec.kind)
                self._publish_job(record)
                return record
            if self._queued_count >= self.queue_limit:
                self.metrics.inc("service_jobs_rejected", reason="queue_full")
                raise QueueFullError(
                    f"job queue is full ({self.queue_limit} waiting); "
                    "retry after a job completes"
                )
            record = new_job(job_key, spec.kind, spec.canonical())
            # Same atomicity argument: create + in-flight index insert
            # must serialize against an identical racing submission, or
            # two primaries for one job_key would both run.
            self.store.create(record)  # repro: noqa[CONC003]
            self._inflight[job_key] = record.job_id
            self._queued_count += 1
            self._queue.put(record.job_id)
        self._set_depth_gauges()
        self._publish_job(record)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (idempotent for already-cancelled ones).

        Running jobs cannot be cancelled (no preemption across the
        engine boundary) — that raises :class:`JobConflictError`, as
        does cancelling any other terminal state.  Cancelling a primary
        with followers promotes the first follower to primary so the
        shared computation still happens for the submitters that still
        want it.
        """
        with self._lock:
            # The whole read-check-transition must hold the lock so a
            # worker can't move the job to running between our state
            # check and the cancelled write; the store I/O here is one
            # record's file, not a scan.
            record = self.store.resolve(job_id)  # repro: noqa[CONC003]
            if record.state == "cancelled":
                return record
            if record.state != "queued":
                raise JobConflictError(
                    f"job {record.job_id} is {record.state}; only queued "
                    "jobs can be cancelled"
                )
            record.state = "cancelled"
            record.finished_unix = time.time()
            self.store.update(record)  # repro: noqa[CONC003]
            self.metrics.inc("service_jobs_completed", state="cancelled")
            if record.coalesced_with is not None:
                # A follower: just detach it from its primary.
                siblings = self._followers.get(record.coalesced_with, [])
                if record.job_id in siblings:
                    siblings.remove(record.job_id)
            else:
                # A primary: its queue slot frees up when the worker
                # skips the cancelled record; promote a follower now so
                # the remaining submitters still get their result.
                self._inflight.pop(record.job_key, None)
                followers = self._followers.pop(record.job_id, [])
                if followers:
                    heir_id = followers.pop(0)
                    # Promotion must be atomic with the index rewrite:
                    # releasing the lock between them would let a racing
                    # submit() coalesce onto a primary that no longer
                    # exists.  Both operations touch one record file.
                    heir = self.store.get(heir_id)  # repro: noqa[CONC003]
                    heir.coalesced_with = None
                    self.store.update(heir)  # repro: noqa[CONC003]
                    self._inflight[record.job_key] = heir.job_id
                    self._followers[heir.job_id] = followers
                    self._queued_count += 1
                    self._queue.put(heir.job_id)
        self._set_depth_gauges()
        self._publish_job(record)
        return record

    # -- worker loop -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                self._run_one(job_id)
            except Exception:  # pragma: no cover - worker must survive
                # A failure escaping _run_one is a bug in the executor
                # itself; the worker thread stays alive regardless.
                traceback.print_exc()

    def _run_one(self, job_id: str) -> None:
        with self._lock:
            self._queued_count -= 1
            try:
                # The queued->running transition reads and rewrites the
                # record under the lock so cancel() can't transition the
                # same job concurrently — both sides do a read-check-
                # write on one record file and must serialize.
                record = self.store.get(job_id)  # repro: noqa[CONC003]
            except ValidationError:
                return
            if record.state != "queued":
                # Cancelled (or otherwise resolved) while waiting.
                return
            record.state = "running"
            record.attempts += 1
            record.started_unix = time.time()
            self.store.update(record)  # repro: noqa[CONC003]
        self._set_depth_gauges()
        self._publish_job(record)
        spec = JobSpec(
            kind=record.kind,
            trace=record.spec["trace"],
            config=record.spec["config"],
            params=record.spec["params"],
        )
        started = time.perf_counter()
        # Job metrics are per-run; the tracer is the executor's own.
        obs = ObsContext(tracer=self.tracer)
        try:
            with self.tracer.span(
                "service:job",
                category="service",
                job_id=record.job_id,
                kind=record.kind,
            ):
                result = self._execute(spec, record, obs)
        except ReproError as exc:
            self._finish(record, "failed", obs.metrics, started, error=str(exc))
        except Exception as exc:
            self._finish(
                record,
                "failed",
                obs.metrics,
                started,
                error=f"{type(exc).__name__}: {exc}",
            )
        else:
            record.result = result
            self._finish(record, "succeeded", obs.metrics, started)

    def _finish(
        self,
        record: JobRecord,
        state: str,
        job_metrics: Metrics,
        started: float,
        error: Optional[str] = None,
    ) -> None:
        elapsed = time.perf_counter() - started
        snapshot = job_metrics.snapshot()
        record.state = state
        record.error = error
        record.finished_unix = time.time()
        record.metrics = flatten_metrics(snapshot)
        self.store.update(record)
        self.metrics.inc("service_jobs_completed", state=state)
        self.metrics.observe("service_job_wall_s", elapsed, kind=record.kind)
        # Surface the precompute-store economics of job traffic on
        # /v1/metrics: job metrics are per-run, so the shared-store
        # counters are folded into the service registry here.
        for counter in (
            "precomp_store_hits",
            "precomp_store_misses",
            "precomp_store_publishes",
        ):
            total = snapshot.counter_total(counter)
            if total:
                self.metrics.inc(counter, total)
        record_path = record_run(
            f"service:{record.kind}",
            store=self.run_store,
            argv=[record.job_id],
            snapshot=snapshot,
            jobs=self.sim_jobs if isinstance(self.sim_jobs, int) else None,
            duration_s=elapsed,
            extra={
                "job_id": record.job_id,
                "job_key": record.job_key,
                "state": state,
            },
            artifacts=self._job_artifacts(record),
        )
        self._publish_job(record)
        if record_path is not None:
            # Record filenames are {stamp}-{run_id}.json; the id is
            # what /v1/dash/runs/{ref} wants.
            run_id = record_path.stem.split("-", 1)[-1]
            self.events.publish(
                "run_recorded",
                run_id=run_id,
                command=f"service:{record.kind}",
                job_id=record.job_id,
            )
        followers: List[str] = []
        with self._lock:
            if self._inflight.get(record.job_key) == record.job_id:
                del self._inflight[record.job_key]
            followers = self._followers.pop(record.job_id, [])
        for follower_id in followers:
            try:
                follower = self.store.get(follower_id)
            except ValidationError:
                continue
            if follower.state != "queued":
                continue
            follower.state = state
            follower.error = error
            follower.result = record.result
            follower.metrics = dict(record.metrics)
            follower.finished_unix = time.time()
            self.store.update(follower)
            self.metrics.inc("service_jobs_completed", state=state)
            self._publish_job(follower)
        self._set_depth_gauges()

    def _publish_job(self, record: JobRecord) -> None:
        """One ``job`` event per lifecycle transition, typed by payload."""
        self.events.publish("job", **record.status_payload())

    def _job_artifacts(self, record: JobRecord) -> Optional[Dict[str, Any]]:
        """Sidecar sections held aside by the job body, if any."""
        sections = self._pending_artifacts.pop(record.job_id, None)
        return sections or None

    def _set_depth_gauges(self) -> None:
        with self._lock:
            queued = self._queued_count
            inflight = len(self._inflight)
        self.metrics.gauge("service_queue_depth", queued)
        self.metrics.gauge("service_jobs_inflight", inflight)

    # -- execution bodies --------------------------------------------------

    def _execute(
        self, spec: JobSpec, record: JobRecord, obs: ObsContext
    ) -> Dict[str, Any]:
        # A fresh runtime (and cache object over the same directory) per
        # job keeps cache counts job-local while still sharing every
        # artifact across jobs and with the CLI.
        runtime = Runtime(
            jobs=self.sim_jobs,
            cache_dir=self.cache_dir,
            metrics=obs.metrics,
            tracer=obs.tracer,
            progress=_JobProgress(self.store, record, self.metrics, self.events),
        )
        trace = self._load_trace(spec)
        config = spec.gpu_config()
        if spec.kind == "simulate":
            result, sections = _run_simulate(runtime, trace, config)
        elif spec.kind == "subset":
            result, sections = _run_subset(
                runtime, trace, config, dict(spec.params)
            )
        elif spec.kind == "sweep":
            result, sections = _run_sweep(runtime, trace)
        else:
            raise ValidationError(f"unknown job kind {spec.kind!r}")
        if sections:
            self._pending_artifacts[record.job_id] = sections
        return result

    @staticmethod
    def _load_trace(spec: JobSpec) -> Any:
        from repro.gfx.traceio import load_trace_auto
        from repro.synth.generator import generate_trace

        trace_spec = dict(spec.trace)
        if "path" in trace_spec:
            return load_trace_auto(trace_spec["path"])
        gen = dict(trace_spec["generate"])
        return generate_trace(
            str(gen["game"]),
            num_frames=gen.get("frames"),
            seed=int(gen.get("seed", 0)),
            scale=float(gen.get("scale", 1.0)),
        )


#: Job bodies return (result payload, artifact sidecar sections).
_JobOutcome = Tuple[Dict[str, Any], Dict[str, Any]]


def _run_simulate(runtime: Runtime, trace: Any, config: Any) -> _JobOutcome:
    result = runtime.simulate_trace(trace, config)
    return {
        "trace": trace.name,
        "config": config.name,
        "total_time_ms": float(result.total_time_ms),
        "mean_fps": float(result.mean_fps),
        "num_frames": int(trace.num_frames),
        "num_draws": int(trace.num_draws),
    }, {}


def _run_subset(
    runtime: Runtime, trace: Any, config: Any, params: Dict[str, Any]
) -> _JobOutcome:
    from repro.core.pipeline import SubsettingPipeline
    from repro.obs.artifacts import pipeline_artifact_sections

    pipeline = SubsettingPipeline(
        radius=float(params["radius"]),
        interval_length=int(params["interval_length"]),
        phase_tolerance=float(params["tolerance"]),
        seed=int(params["seed"]),
    )
    result = pipeline.run(trace, config, keep_clusterings=True, runtime=runtime)
    subset = result.subset
    return {
        "trace": trace.name,
        "config": config.name,
        "mean_prediction_error": float(result.mean_prediction_error),
        "mean_efficiency": float(result.mean_efficiency),
        "mean_outlier_rate": float(result.mean_outlier_rate),
        "num_phases": int(result.detection.num_phases),
        "subset_frame_fraction": float(subset.frame_fraction),
        "subset_draw_fraction": float(subset.draw_fraction),
        "combined_draw_fraction": float(result.combined_draw_fraction),
        "subset_time_error": float(result.subset_time_error),
        "subset": {
            "frame_positions": [int(p) for p in subset.frame_positions],
            "frame_weights": [float(w) for w in subset.frame_weights],
            "parent_num_frames": int(subset.parent_num_frames),
            "parent_num_draws": int(subset.parent_num_draws),
        },
    }, pipeline_artifact_sections(result, trace)


def _run_sweep(runtime: Runtime, trace: Any) -> _JobOutcome:
    from repro.analysis.sweep import pathfinding_sweep
    from repro.core.subsetting import build_subset
    from repro.obs.artifacts import sweep_artifact_sections

    subset = build_subset(trace)
    result = pathfinding_sweep(trace, subset, runtime=runtime)
    return {
        "trace": trace.name,
        "config_names": list(result.config_names),
        "parent_times_ms": [t / 1e6 for t in result.parent_times_ns],
        "subset_estimated_times_ms": [
            t / 1e6 for t in result.subset_estimated_times_ns
        ],
        "ranking_agreement": float(result.ranking_agreement),
        "winner_agrees": bool(result.winner_agrees()),
    }, sweep_artifact_sections(result)
