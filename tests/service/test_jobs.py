"""Job store: exclusive create, atomic update, lookup, crash recovery."""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.service.jobs import (
    JOB_STORE_VERSION,
    MAX_ATTEMPTS,
    JobRecord,
    JobStore,
    new_job,
)


def _job(kind: str = "simulate", key: str = "k") -> JobRecord:
    return new_job(key, kind, {"kind": kind})


def test_create_writes_one_file_per_job(store: JobStore):
    record = _job()
    path = store.create(record)
    assert path.is_file()
    assert path.name.endswith(f"-{record.job_id}.json")
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["job_store_version"] == JOB_STORE_VERSION
    assert data["state"] == "queued"


def test_create_never_overwrites_on_name_collision(store: JobStore):
    record = _job()
    first = store.create(record)
    # Same id + same creation stamp (a pathological clock) must land in
    # a sibling file, not clobber the original.
    second = store.create(record)
    assert first != second
    assert first.is_file() and second.is_file()


def test_update_rewrites_in_place_and_bumps_updated(store: JobStore):
    record = _job()
    path = store.create(record)
    before = record.updated_unix
    record.state = "running"
    record.attempts = 1
    assert store.update(record) == path
    reread = store.get(record.job_id)
    assert reread.state == "running"
    assert reread.attempts == 1
    assert reread.updated_unix >= before
    # No temp files left behind.
    assert sorted(store.root.iterdir()) == [path]


def test_update_unknown_job_raises(store: JobStore):
    with pytest.raises(ValidationError, match="no job record"):
        store.update(_job())


def test_records_filters_by_state_kind_and_limit(store: JobStore):
    jobs = [_job(kind=k) for k in ("simulate", "subset", "simulate")]
    for offset, record in enumerate(jobs):
        record.created_unix += offset  # deterministic ordering
        store.create(record)
    jobs[1].state = "succeeded"
    store.update(jobs[1])

    assert [r.job_id for r in store.records()] == [j.job_id for j in jobs]
    assert [r.job_id for r in store.records(state="queued")] == [
        jobs[0].job_id, jobs[2].job_id
    ]
    assert [r.job_id for r in store.records(kind="subset")] == [jobs[1].job_id]
    # limit keeps the newest N after filtering.
    assert [r.job_id for r in store.records(limit=1)] == [jobs[2].job_id]
    assert store.records(limit=0) == []


def test_records_skips_foreign_and_partial_files(store: JobStore):
    record = _job()
    store.create(record)
    (store.root / "zz-partial.json").write_text("{\"trunc", encoding="utf-8")
    (store.root / "zz-foreign.json").write_text("{}", encoding="utf-8")
    assert [r.job_id for r in store.records()] == [record.job_id]
    # A truncated record of a known id is unreadable, not a crash.
    truncated = _job()
    path = store.create(truncated)
    path.write_text("{\"trunc", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"unreadable job record .*{path.name}"):
        store.get(truncated.job_id)
    with pytest.raises(ValidationError, match="no job matches"):
        store.resolve(truncated.job_id)


def test_from_dict_rejects_future_versions(store: JobStore):
    data = _job().to_dict()
    data["job_store_version"] = JOB_STORE_VERSION + 1
    with pytest.raises(ValidationError, match="version"):
        JobRecord.from_dict(data)


def test_from_dict_rejects_unknown_state():
    data = _job().to_dict()
    data["state"] = "simmering"
    with pytest.raises(ValidationError, match="unknown job state"):
        JobRecord.from_dict(data)


def test_resolve_by_unique_prefix(store: JobStore):
    record = _job()
    store.create(record)
    assert store.resolve(record.job_id[:6]).job_id == record.job_id
    assert store.resolve(record.job_id).job_id == record.job_id


def test_resolve_rejects_ambiguous_and_unknown_prefixes(store: JobStore):
    first, second = _job(), _job()
    # Force a shared prefix without fishing for uuid collisions.
    second.job_id = first.job_id[:6] + "f" * 6
    store.create(first)
    store.create(second)
    with pytest.raises(ValidationError, match="ambiguous"):
        store.resolve(first.job_id[:6])
    with pytest.raises(ValidationError, match="no job matches"):
        store.resolve("zzzz")


def test_recover_requeues_first_crash(store: JobStore):
    record = _job()
    record.state = "running"
    record.attempts = 1
    record.progress = {"tasks_done": 3.0}
    store.create(record)

    requeued, interrupted = store.recover()

    assert [r.job_id for r in requeued] == [record.job_id]
    assert interrupted == []
    reread = store.get(record.job_id)
    assert reread.state == "queued"
    assert reread.progress == {}
    assert reread.attempts == 1  # attempts count starts, not recoveries


def test_recover_interrupts_repeat_offenders(store: JobStore):
    record = _job()
    record.state = "running"
    record.attempts = MAX_ATTEMPTS
    store.create(record)

    requeued, interrupted = store.recover()

    assert requeued == []
    assert [r.job_id for r in interrupted] == [record.job_id]
    reread = store.get(record.job_id)
    assert reread.state == "interrupted"
    assert reread.is_terminal
    assert "interrupted" in (reread.error or "")
    assert reread.finished_unix is not None


def test_recover_is_idempotent_on_a_settled_store(store: JobStore):
    done = _job()
    store.create(done)
    done.state = "succeeded"
    store.update(done)
    assert store.recover() == ([], [])
    assert store.get(done.job_id).state == "succeeded"


def test_status_payload_omits_result_blob(store: JobStore):
    record = _job()
    record.result = {"total_time_ms": 12.5}
    payload = record.status_payload()
    assert "result" not in payload
    assert payload["job_id"] == record.job_id
    assert payload["state"] == "queued"
