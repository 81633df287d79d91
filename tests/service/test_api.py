"""ServiceApp routing and error mapping, exercised without sockets."""

from __future__ import annotations

import json

import pytest

from repro.service.api import RETRY_AFTER_S, ServiceApp

from tests.service.conftest import job_payload


@pytest.fixture
def app(make_executor):
    return ServiceApp(make_executor(started=False))


def _post(app: ServiceApp, payload):
    return app.handle("POST", "/v1/jobs", json.dumps(payload).encode("utf-8"))


def test_healthz_reports_build_and_queue(app):
    response = app.handle("GET", "/v1/healthz")
    assert response.status == 200
    assert response.body["status"] == "ok"
    assert response.body["build"]["package_version"]
    assert response.body["queue_depth"] == 0.0
    # The body is serializable as-is.
    assert json.loads(response.body_bytes())["status"] == "ok"


def test_submit_returns_202_with_status_payload(app):
    response = _post(app, job_payload())
    assert response.status == 202
    assert response.body["state"] == "queued"
    assert response.body["kind"] == "simulate"
    assert "result" not in response.body


def test_duplicate_submit_returns_200_coalesced(app):
    first = _post(app, job_payload(seed=4))
    second = _post(app, job_payload(seed=4))
    assert second.status == 200
    assert second.body["coalesced_with"] == first.body["job_id"]


def test_submit_maps_field_errors_to_422(app):
    response = _post(app, {"kind": "simulate", "trace": {}})
    assert response.status == 422
    assert response.body["error"] == "validation failed"
    assert response.body["field_errors"] == [
        {
            "field_path": "trace",
            "message": "provide exactly one of 'path' or 'generate'",
        }
    ]


def test_submit_rejects_non_json_bodies(app):
    assert app.handle("POST", "/v1/jobs", b"").status == 400
    assert app.handle("POST", "/v1/jobs", b"{nope").status == 400


def test_queue_full_maps_to_429_with_retry_after(make_executor):
    app = ServiceApp(make_executor(queue_limit=1, started=False))
    assert _post(app, job_payload(seed=1)).status == 202
    response = _post(app, job_payload(seed=2))
    assert response.status == 429
    assert response.headers["Retry-After"] == str(RETRY_AFTER_S)
    assert "queue is full" in response.body["error"]


def test_status_and_result_lifecycle(app, make_executor):
    submitted = _post(app, job_payload())
    job_id = submitted.body["job_id"]

    status = app.handle("GET", f"/v1/jobs/{job_id}")
    assert status.status == 200
    assert status.body["state"] == "queued"

    pending = app.handle("GET", f"/v1/jobs/{job_id}/result")
    assert pending.status == 409
    assert pending.body["state"] == "queued"

    app.executor.start()
    assert app.executor.join_idle(timeout=120.0)

    result = app.handle("GET", f"/v1/jobs/{job_id}/result")
    assert result.status == 200
    assert result.body["result"]["total_time_ms"] > 0
    assert result.body["metrics"]


def test_result_of_failed_job_is_409_with_error(app, store):
    submitted = _post(app, job_payload())
    record = store.get(submitted.body["job_id"])
    record.state = "failed"
    record.error = "boom"
    store.update(record)

    response = app.handle("GET", f"/v1/jobs/{record.job_id}/result")
    assert response.status == 409
    assert response.body["state"] == "failed"
    assert "boom" in response.body["error"]


def test_result_follows_coalesced_primary(app, store):
    primary = _post(app, job_payload(seed=8)).body["job_id"]
    follower = _post(app, job_payload(seed=8)).body["job_id"]
    record = store.get(primary)
    record.state = "succeeded"
    record.result = {"total_time_ms": 1.0}
    store.update(record)

    response = app.handle("GET", f"/v1/jobs/{follower}/result")
    assert response.status == 200
    assert response.body["job_id"] == primary
    assert response.body["result"] == {"total_time_ms": 1.0}


def test_cancel_route_and_conflict(app):
    job_id = _post(app, job_payload()).body["job_id"]
    cancelled = app.handle("POST", f"/v1/jobs/{job_id}/cancel")
    assert cancelled.status == 200
    assert cancelled.body["state"] == "cancelled"
    # Cancelled is terminal but idempotent; flip to failed for conflict.
    record = app.executor.store.get(job_id)
    record.state = "failed"
    app.executor.store.update(record)
    conflict = app.handle("POST", f"/v1/jobs/{job_id}/cancel")
    assert conflict.status == 409


def test_list_filters_and_validates_query(app):
    _post(app, job_payload(seed=1))
    _post(app, job_payload(seed=2, kind="subset"))

    everything = app.handle("GET", "/v1/jobs")
    assert [j["kind"] for j in everything.body["jobs"]] == [
        "simulate", "subset"
    ]
    subset_only = app.handle("GET", "/v1/jobs?kind=subset&limit=5")
    assert len(subset_only.body["jobs"]) == 1
    assert app.handle("GET", "/v1/jobs?state=simmering").status == 400
    assert app.handle("GET", "/v1/jobs?limit=many").status == 400


def test_unknown_job_and_unknown_route_are_404(app):
    assert app.handle("GET", "/v1/jobs/zzzz").status == 404
    assert app.handle("GET", "/v1/nope").status == 404
    assert app.handle("GET", "/v1/jobs/a/b/c").status == 404


def test_unreadable_job_record_is_404_not_a_crash(app, store):
    job_id = _post(app, job_payload()).body["job_id"]
    (path,) = store.paths()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    for ref in (job_id, job_id[:6]):
        assert app.handle("GET", f"/v1/jobs/{ref}").status == 404
        assert app.handle("GET", f"/v1/jobs/{ref}/result").status == 404


def test_wrong_method_is_405_with_allow_header(app):
    response = app.handle("POST", "/v1/healthz")
    assert response.status == 405
    assert response.headers["Allow"] == "GET"
    assert app.handle("DELETE", "/v1/jobs").status == 405


def test_metrics_endpoint_counts_requests(app):
    app.handle("GET", "/v1/healthz")
    response = app.handle("GET", "/v1/metrics")
    assert response.status == 200
    counters = response.body["metrics"]["counters"]
    assert any(
        series["name"] == "service_requests" for series in counters
    )
