"""Executor behaviour: dedup, queue bounds, cancellation, restart."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ValidationError
from repro.service.executor import (
    JobConflictError,
    JobExecutor,
    QueueFullError,
)
from repro.service.specs import validate_job_request

from tests.service.conftest import job_payload


def _spec(**kwargs):
    return validate_job_request(job_payload(**kwargs))


def _counter(metrics, name: str, **labels) -> int:
    if labels:
        return metrics.snapshot().counter(name, **labels)
    return metrics.counter_total(name)


class _Blocker:
    """Monkeypatched ``_execute`` body that parks jobs on an Event.

    Gives tests deterministic control over the running state without
    racing real simulations: ``entered`` fires once a worker is inside
    the job, ``release`` lets it complete.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, spec, record, telemetry):
        self.calls += 1
        self.entered.set()
        if not self.release.wait(timeout=10.0):
            raise RuntimeError("test blocker never released")
        return {"blocked": True}


def test_end_to_end_subset_job(store, make_executor):
    executor = make_executor()
    record = executor.submit(_spec(kind="subset", frames=12))
    assert record.state == "queued"
    assert executor.join_idle(timeout=120.0)

    done = store.get(record.job_id)
    assert done.state == "succeeded"
    assert done.attempts == 1
    assert done.result is not None
    assert done.result["subset_frame_fraction"] < 1.0
    assert done.result["subset"]["frame_positions"]
    assert done.metrics.get("counter:frames_simulated", 0) > 0
    assert done.progress["tasks_done"] == done.progress["tasks_total"]
    assert _counter(
        executor.metrics, "service_jobs_completed", state="succeeded"
    ) == 1


def test_concurrent_duplicates_coalesce_onto_one_computation(
    store, make_executor, monkeypatch
):
    blocker = _Blocker()
    monkeypatch.setattr(JobExecutor, "_execute", blocker)
    executor = make_executor()

    primary = executor.submit(_spec(seed=42))
    assert blocker.entered.wait(timeout=10.0)
    follower = executor.submit(_spec(seed=42))

    assert follower.coalesced_with == primary.job_id
    assert follower.job_id != primary.job_id
    blocker.release.set()
    assert executor.join_idle(timeout=10.0)

    assert blocker.calls == 1  # one computation for two submissions
    for job_id in (primary.job_id, follower.job_id):
        done = store.get(job_id)
        assert done.state == "succeeded"
        assert done.result == {"blocked": True}
    assert _counter(executor.metrics, "service_jobs_coalesced") == 1
    assert _counter(
        executor.metrics, "service_jobs_submitted", kind="simulate"
    ) == 2


def test_sequential_duplicate_is_a_warm_cache_rerun(store, make_executor):
    executor = make_executor()
    first = executor.submit(_spec(seed=7))
    assert executor.join_idle(timeout=120.0)
    second = executor.submit(_spec(seed=7))
    assert executor.join_idle(timeout=120.0)

    cold = store.get(first.job_id)
    warm = store.get(second.job_id)
    assert warm.coalesced_with is None  # ran, not coalesced
    assert warm.state == "succeeded"
    assert warm.result == cold.result
    # The rerun touched no simulator: all artifacts came from the cache.
    assert cold.metrics.get("counter:frames_simulated", 0) > 0
    assert warm.metrics.get("counter:frames_simulated", 0) == 0
    assert warm.metrics.get("counter:cache_hits", 0) > 0


def test_failed_job_reports_failed_and_workers_survive(store, make_executor):
    executor = make_executor(started=False)
    bad = executor.submit(_spec(frames=40))
    # Sabotage: the generate spec survives validation but names a game
    # the generator rejects at run time.  Done before start() so the
    # worker can't win the race and run the healthy record.
    broken = store.get(bad.job_id)
    broken.spec["trace"]["generate"]["game"] = "does_not_exist"
    store.update(broken)

    good = executor.submit(_spec(seed=3))
    executor.start()
    assert executor.join_idle(timeout=120.0)

    assert store.get(bad.job_id).state == "failed"
    assert store.get(bad.job_id).error
    assert store.get(good.job_id).state == "succeeded"
    assert _counter(
        executor.metrics, "service_jobs_completed", state="failed"
    ) == 1


def test_queue_full_rejects_with_queue_full_error(make_executor):
    executor = make_executor(queue_limit=2, started=False)
    executor.submit(_spec(seed=1))
    executor.submit(_spec(seed=2))
    with pytest.raises(QueueFullError, match="queue is full"):
        executor.submit(_spec(seed=3))
    assert _counter(
        executor.metrics, "service_jobs_rejected", reason="queue_full"
    ) == 1
    # Followers never occupy queue slots, so a duplicate still lands.
    follower = executor.submit(_spec(seed=1))
    assert follower.coalesced_with is not None


def test_cancel_queued_job(store, make_executor):
    executor = make_executor(started=False)
    record = executor.submit(_spec(seed=1))
    cancelled = executor.cancel(record.job_id)
    assert cancelled.state == "cancelled"
    assert store.get(record.job_id).is_terminal
    # Idempotent on repeat; by unique prefix too.
    assert executor.cancel(record.job_id[:6]).state == "cancelled"


def test_cancel_running_job_conflicts(store, make_executor, monkeypatch):
    blocker = _Blocker()
    monkeypatch.setattr(JobExecutor, "_execute", blocker)
    executor = make_executor()
    record = executor.submit(_spec())
    assert blocker.entered.wait(timeout=10.0)
    with pytest.raises(JobConflictError, match="running"):
        executor.cancel(record.job_id)
    blocker.release.set()
    assert executor.join_idle(timeout=10.0)
    with pytest.raises(JobConflictError, match="succeeded"):
        executor.cancel(record.job_id)


def test_cancelling_primary_promotes_a_follower(store, make_executor):
    executor = make_executor(started=False)
    primary = executor.submit(_spec(seed=9))
    follower = executor.submit(_spec(seed=9))
    assert follower.coalesced_with == primary.job_id

    executor.cancel(primary.job_id)

    heir = store.get(follower.job_id)
    assert heir.state == "queued"
    assert heir.coalesced_with is None  # promoted to primary
    # The promoted job actually runs once workers exist.
    executor.start()
    assert executor.join_idle(timeout=120.0)
    assert store.get(follower.job_id).state == "succeeded"
    assert store.get(primary.job_id).state == "cancelled"


def test_restart_picks_up_queued_backlog(store, make_executor):
    cold = make_executor(started=False)
    one = cold.submit(_spec(seed=1))
    two = cold.submit(_spec(seed=2))
    # Simulate a crash: nothing ran, records persist in the store.

    warm = make_executor(job_store=store)
    assert warm.join_idle(timeout=120.0)
    assert store.get(one.job_id).state == "succeeded"
    assert store.get(two.job_id).state == "succeeded"


def test_restart_requeues_interrupted_running_job(store, make_executor):
    crashed = make_executor(started=False)
    record = crashed.submit(_spec(seed=5))
    running = store.get(record.job_id)
    running.state = "running"
    running.attempts = 1
    store.update(running)

    warm = JobExecutor(store, cache_dir=None)
    recovery = warm.start()
    try:
        assert recovery == {"requeued": [record.job_id], "interrupted": []}
        assert warm.join_idle(timeout=120.0)
        done = store.get(record.job_id)
        assert done.state == "succeeded"
        assert done.attempts == 2
    finally:
        warm.stop(timeout=5.0)


def test_restart_interrupts_twice_crashed_job(store, make_executor):
    crashed = make_executor(started=False)
    record = crashed.submit(_spec(seed=6))
    running = store.get(record.job_id)
    running.state = "running"
    running.attempts = 2
    store.update(running)

    warm = JobExecutor(store, cache_dir=None)
    recovery = warm.start()
    try:
        assert recovery == {"requeued": [], "interrupted": [record.job_id]}
        done = store.get(record.job_id)
        assert done.state == "interrupted"
        assert "limit 2" in (done.error or "")
    finally:
        warm.stop(timeout=5.0)


def test_submit_after_stop_is_rejected(make_executor):
    executor = make_executor(started=False)
    executor.stop(timeout=1.0)
    with pytest.raises(ValidationError, match="shutting down"):
        executor.submit(_spec())


def test_invalid_worker_counts_are_rejected(store):
    with pytest.raises(ValidationError, match="workers"):
        JobExecutor(store, workers=0)
    with pytest.raises(ValidationError, match="queue_limit"):
        JobExecutor(store, queue_limit=0)
