"""The append-only run store: round-trips, append semantics, queries."""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.obs.history import (
    RUN_STORE_VERSION,
    RunRecord,
    RunStore,
    collect_record,
    default_store_dir,
    flatten_metrics,
    record_run,
)
from repro.obs.metrics import Metrics


def make_record(run_id="abc123def456", created=1000.0, command="simulate",
                **overrides):
    kwargs = dict(
        run_id=run_id,
        created_unix=created,
        command=command,
        argv=("simulate", "t.jsonl"),
        git_sha="deadbeef",
        environment={"python_version": "3.12.0"},
        jobs=2,
        seeds={"pipeline": 1234},
        config_digests={"mainstream": "aa" * 32},
        trace_digests={"t": "bb" * 32},
        metrics={"counter:frames_simulated": 24.0, "stage:simulate": 0.5},
        stages={"simulate": 0.5},
        top_stages={"simulate": 0.5},
    )
    kwargs.update(overrides)
    return RunRecord(**kwargs)


class TestRecordRoundTrip:
    def test_to_from_dict_round_trips(self):
        record = make_record()
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record

    def test_version_mismatch_rejected(self):
        data = make_record().to_dict()
        data["run_store_version"] = RUN_STORE_VERSION + 1
        with pytest.raises(ValidationError, match="version"):
            RunRecord.from_dict(data)

    def test_all_series_merges_stage_prefix(self):
        record = make_record(
            metrics={"counter:x": 1.0}, stages={"cluster": 2.0}
        )
        series = record.all_series()
        assert series == {"counter:x": 1.0, "stage:cluster": 2.0}


class TestAppendOnly:
    def test_two_appends_never_overwrite(self, tmp_path):
        # Identical timestamps and run ids — the worst case — must still
        # land in two distinct files.
        store = RunStore(tmp_path / "runs")
        record = make_record()
        path_a = store.append(record)
        path_b = store.append(record)
        assert path_a != path_b
        assert len(store.paths()) == 2

    def test_consecutive_record_run_calls_append(self, tmp_path):
        # The acceptance-criteria shape: two invocations of the shared
        # hook grow the store, never replace.
        store_dir = tmp_path / "runs"
        for _ in range(2):
            path = record_run(
                "bench:overhead",
                store=store_dir,
                metrics={"gauge:overhead_pct": 1.0},
            )
            assert path is not None
        records = RunStore(store_dir).records()
        assert len(records) == 2
        assert records[0].run_id != records[1].run_id

    def test_filenames_sort_by_creation_time(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(make_record(run_id="late", created=2000.0))
        store.append(make_record(run_id="early", created=1000.0))
        loaded = store.records()
        assert [r.run_id for r in loaded] == ["early", "late"]


class TestQueries:
    def _store(self, tmp_path):
        store = RunStore(tmp_path)
        for i in range(5):
            store.append(
                make_record(run_id=f"sim{i}sim{i}", created=1000.0 + i)
            )
        store.append(make_record(
            run_id="sweeprun0000", created=2000.0, command="sweep"
        ))
        return store

    def test_command_filter(self, tmp_path):
        store = self._store(tmp_path)
        assert len(store.records(command="simulate")) == 5
        assert len(store.records(command="sweep")) == 1

    def test_limit_keeps_newest(self, tmp_path):
        store = self._store(tmp_path)
        window = store.records(command="simulate", limit=2)
        assert [r.run_id for r in window] == ["sim3sim3", "sim4sim4"]

    def test_limit_larger_than_store_returns_all(self, tmp_path):
        store = self._store(tmp_path)
        assert len(store.records(command="sweep", limit=10)) == 1

    def test_resolve_by_index_and_prefix(self, tmp_path):
        store = self._store(tmp_path)
        assert store.resolve("-1").run_id == "sweeprun0000"
        assert store.resolve("sim2").run_id == "sim2sim2"

    def test_resolve_errors(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ValidationError, match="no run record"):
            store.resolve("zzz")
        with pytest.raises(ValidationError, match="ambiguous"):
            store.resolve("sim")
        with pytest.raises(ValidationError, match="out of range"):
            store.resolve("-100")
        with pytest.raises(ValidationError, match="empty"):
            RunStore(tmp_path / "nothing").resolve("-1")

    def test_ambiguous_prefix_names_the_candidates(self, tmp_path):
        # The error must show which runs matched, so the caller can
        # extend the prefix without a second listing round-trip.
        store = self._store(tmp_path)
        with pytest.raises(ValidationError, match="sim0sim0") as info:
            store.resolve("sim")
        message = str(info.value)
        assert "5 matches" in message
        for i in range(5):
            assert f"sim{i}sim{i}" in message

    def test_ambiguous_prefix_truncates_long_candidate_lists(self, tmp_path):
        store = RunStore(tmp_path)
        for i in range(12):
            store.append(make_record(run_id=f"aa{i:02d}aa{i:02d}aaaa"))
        with pytest.raises(ValidationError, match=r"\.\.\. \+4 more"):
            store.resolve("aa")

    def test_foreign_json_skipped(self, tmp_path):
        store = self._store(tmp_path)
        (tmp_path / "zz-not-a-record.json").write_text("{\"x\": 1}")
        (tmp_path / "zz-not-json.json").write_text("not json at all")
        assert len(store.records()) == 6


class TestCollection:
    def test_flatten_metrics_naming_scheme(self):
        metrics = Metrics()
        metrics.inc("frames_simulated", 3, phase="a")
        metrics.inc("frames_simulated", 4, phase="b")
        metrics.gauge("subset_error", 0.02)
        metrics.observe("task_wall_s", 0.5)
        flat = flatten_metrics(metrics.snapshot())
        assert flat["counter:frames_simulated"] == 7.0
        assert flat["counter:frames_simulated{phase=a}"] == 3.0
        assert flat["gauge:subset_error"] == 0.02
        assert flat["hist:task_wall_s:count"] == 1.0
        assert flat["hist:task_wall_s:mean"] == 0.5

    def test_flatten_metrics_labeled_histograms(self):
        # Labeled histogram series flatten to one mean/count pair per
        # label set — the shape the dashboard's requests-by-route table
        # reads off service_request_duration_s{route,status}.
        metrics = Metrics()
        metrics.observe("req_s", 0.2, route="/v1/dash/runs", status="200")
        metrics.observe("req_s", 0.4, route="/v1/dash/runs", status="200")
        metrics.observe("req_s", 0.1, route="/v1/jobs", status="503")
        flat = flatten_metrics(metrics.snapshot())
        key = "hist:req_s{route=/v1/dash/runs,status=200}"
        assert flat[f"{key}:count"] == 2.0
        assert flat[f"{key}:mean"] == pytest.approx(0.3)
        other = "hist:req_s{route=/v1/jobs,status=503}"
        assert flat[f"{other}:count"] == 1.0
        assert flat[f"{other}:mean"] == pytest.approx(0.1)
        # Label order is canonical: no duplicate series under reordering.
        metrics.observe("req_s", 0.6, status="200", route="/v1/dash/runs")
        flat = flatten_metrics(metrics.snapshot())
        assert flat[f"{key}:count"] == 3.0

    def test_collect_record_derives_rates(self):
        metrics = Metrics()
        metrics.inc("cache_hits", 3)
        metrics.inc("cache_misses", 1)
        metrics.inc("frames_simulated", 100, phase="ground_truth")
        record = collect_record(
            "simulate", snapshot=metrics.snapshot(), duration_s=2.0
        )
        assert record.metrics["derived:cache_hit_rate"] == 0.75
        assert record.metrics["derived:frames_per_s"] == 50.0
        assert record.metrics["derived:duration_s"] == 2.0

    def test_collect_record_stage_rollups(self):
        metrics = Metrics()
        metrics.observe("stage_s", 0.5, stage="outer")
        metrics.observe("stage_s", 0.25, stage="outer")
        metrics.observe("task_wall_s", 0.125, kind="sim")
        metrics.observe("task_wall_s", 0.375, kind="sim")
        record = collect_record("simulate", snapshot=metrics.snapshot())
        # Worker time elapses inside a stage: rolled up, never top-level.
        assert record.stages == {"outer": 0.75, "worker.sim": 0.5}
        assert record.top_stages == {"outer": 0.75}
        assert record.all_series()["stage:outer"] == record.stages["outer"]

    def test_explicit_metrics_win_over_telemetry(self):
        metrics = Metrics()
        metrics.inc("frames_simulated", 5)
        record = collect_record(
            "bench", snapshot=metrics.snapshot(),
            metrics={"counter:frames_simulated": 99.0},
        )
        assert record.metrics["counter:frames_simulated"] == 99.0


class TestEnvOverride:
    def test_env_set_but_empty_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_STORE", "  ")
        assert default_store_dir() is None
        assert record_run("simulate", metrics={}) is None

    def test_env_points_store_elsewhere(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "alt"))
        path = record_run("simulate", metrics={"counter:x": 1.0})
        assert path is not None
        assert path.parent == tmp_path / "alt"

    def test_store_write_failure_is_swallowed(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store dir should go")
        assert record_run("simulate", store=blocker, metrics={}) is None

    def test_record_files_are_valid_json(self, tmp_path):
        path = record_run(
            "simulate", store=tmp_path, metrics={"counter:x": 1.0}
        )
        data = json.loads(path.read_text())
        assert data["run_store_version"] == RUN_STORE_VERSION
        assert data["command"] == "simulate"
        assert "python_version" in data["environment"]
