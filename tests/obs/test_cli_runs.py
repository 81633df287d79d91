"""The run-store CLI: recording hooks, runs list/show/diff/regress, trace report."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.obs.history import RunStore
from repro.simgpu.precomp_store import PRECOMP_DIR_ENV


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-runs") / "t.json"
    assert (
        main(
            [
                "generate", "--game", "bioshock1_like", "--frames", "5",
                "--scale", "0.05", "-o", str(path),
            ]
        )
        == 0
    )
    return path


def simulate(trace_file, store, *extra):
    return main(
        [
            "simulate", str(trace_file), "--no-cache",
            "--run-store", str(store), *extra,
        ]
    )


class TestRecordingHook:
    def test_simulate_appends_a_record(self, trace_file, tmp_path, capsys):
        store = tmp_path / "runs"
        assert simulate(trace_file, store) == 0
        capsys.readouterr()
        records = RunStore(store).records()
        assert len(records) == 1
        record = records[0]
        assert record.command == "simulate"
        assert record.metrics["counter:frames_simulated"] == 5.0
        assert record.stages  # stage rollups captured
        assert record.config_digests and record.trace_digests
        assert record.metrics["derived:duration_s"] > 0

    def test_consecutive_runs_append_never_overwrite(
        self, trace_file, tmp_path, capsys
    ):
        store = tmp_path / "runs"
        assert simulate(trace_file, store) == 0
        assert simulate(trace_file, store) == 0
        capsys.readouterr()
        assert len(RunStore(store).paths()) == 2

    def test_no_run_store_flag_disables(self, trace_file, tmp_path, capsys):
        store = tmp_path / "runs"
        assert simulate(trace_file, store, "--no-run-store") == 0
        capsys.readouterr()
        assert RunStore(store).paths() == []

    def test_env_var_disables_when_empty(
        self, trace_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_RUN_STORE", "")
        assert main(["simulate", str(trace_file), "--no-cache"]) == 0
        capsys.readouterr()

    def test_progress_flag_emits_lines(self, trace_file, tmp_path, capsys):
        store = tmp_path / "runs"
        assert simulate(trace_file, store, "--progress") == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        assert "[progress]" not in captured.out


SUBSET_STAGES = ["cluster", "ground_truth", "phase_detect", "predict", "representatives"]
SUBSET_COUNTERS = [
    "cache_misses",
    "cache_puts",
    "frames_clustered",
    "frames_simulated",
    "frames_simulated{phase=ground_truth}",
    "frames_simulated{phase=representatives}",
    "tasks_run",
]
RUNTIME_LINE = re.compile(
    r"\[runtime\] tasks=\d+ frames_simulated=\d+ cache_hits=\d+ "
    r"cache_misses=\d+ stage_time=\d+\.\d\ds"
)


class TestRecordShape:
    """Run records keep one shape, rebuilt from the run's metrics."""

    @pytest.fixture(autouse=True)
    def _no_precomp_store(self, monkeypatch):
        # Under compiled kernels the shared store adds a precomp_publish
        # stage; without it the shape does not depend on the backend.
        monkeypatch.setenv(PRECOMP_DIR_ENV, "")

    def _run(self, command, trace_file, tmp_path, capsys, jobs):
        store, metrics_out = tmp_path / "runs", tmp_path / "metrics.json"
        argv = [
            command, str(trace_file), "--jobs", jobs,
            "--cache-dir", str(tmp_path / "cache"), "--run-store", str(store),
            "--metrics-out", str(metrics_out),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        [runtime_line] = [line for line in lines if line.startswith("[runtime]")]
        assert RUNTIME_LINE.fullmatch(runtime_line)
        [record] = RunStore(store).records()
        task_wall = {
            series["labels"]["kind"]: series["sum"]
            for series in json.loads(metrics_out.read_text())["histograms"]
            if series["name"] == "task_wall_s"
        }
        return record, task_wall

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_subset_record(self, trace_file, tmp_path, capsys, jobs, pooled_fan_outs):
        record, task_wall = self._run("subset", trace_file, tmp_path, capsys, jobs)
        workers = ["worker.cluster_frame_range", "worker.simulate_frame_range"]
        assert sorted(record.stages) == SUBSET_STAGES + workers
        assert sorted(record.top_stages) == SUBSET_STAGES
        for name in workers:
            assert record.stages[name] == task_wall[name[len("worker."):]]
        counters = sorted(
            key[len("counter:"):] for key in record.metrics if key.startswith("counter:")
        )
        assert counters == SUBSET_COUNTERS
        assert not [key for key in record.metrics if key.startswith("hist:task_wall_s{worker=")]

    def test_sweep_record(self, trace_file, tmp_path, capsys, pooled_fan_outs):
        record, task_wall = self._run("sweep", trace_file, tmp_path, capsys, "2")
        assert sorted(record.stages) == [
            "sweep.parent", "sweep.subset", "worker.simulate_frame_times"
        ]
        assert sorted(record.top_stages) == ["sweep.parent", "sweep.subset"]
        assert record.stages["worker.simulate_frame_times"] == task_wall["simulate_frame_times"]


class TestRunsCommands:
    @pytest.fixture(scope="class")
    def store(self, trace_file, tmp_path_factory):
        store = tmp_path_factory.mktemp("store") / "runs"
        for _ in range(6):
            assert simulate(trace_file, store) == 0
        return store

    def test_list(self, store, capsys):
        capsys.readouterr()
        assert main(["runs", "list", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out
        assert out.count("\n") >= 6

    def test_list_json_shares_the_dashboard_contract(self, store, capsys):
        # `runs list --format json` and GET /v1/dash/runs are the same
        # payload builder; a script can swap one for the other.
        from repro.obs.dash import runs_payload

        capsys.readouterr()
        assert main(
            ["runs", "list", "--store", str(store), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == runs_payload(RunStore(store))
        assert payload["count"] == 6
        assert payload["commands"] == ["simulate"]
        row = payload["runs"][0]
        assert row["command"] == "simulate"
        assert row["frames_simulated"] == 5.0
        assert row["duration_s"] > 0

    def test_list_json_respects_filters(self, store, capsys):
        capsys.readouterr()
        assert main(
            [
                "runs", "list", "--store", str(store),
                "--format", "json", "--limit", "2",
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 2

    def test_list_command_filter(self, store, capsys):
        capsys.readouterr()
        assert main(
            ["runs", "list", "--store", str(store), "--command", "sweep"]
        ) == 0
        assert "no run records" in capsys.readouterr().out

    def test_show_newest(self, store, capsys):
        capsys.readouterr()
        assert main(["runs", "show", "--store", str(store), "--", "-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["metrics"]["counter:frames_simulated"] == 5.0

    def test_diff(self, store, capsys):
        capsys.readouterr()
        assert main(
            ["runs", "diff", "--store", str(store), "--", "-2", "-1"]
        ) == 0
        out = capsys.readouterr().out
        assert "counter:frames_simulated" in out
        assert "+0.0%" in out  # deterministic counter: no drift

    def test_regress_clean_passes(self, store, capsys):
        # Gate the deterministic counter series only (the CI
        # invocation): six identical runs of a tiny trace have genuinely
        # noisy wall-times, so the timing prongs can fire for real.
        capsys.readouterr()
        assert main(
            ["runs", "regress", "--store", str(store), "--window", "5",
             "--select", "counter:*"]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_regress_detects_counter_drift(self, store, tmp_path, capsys):
        # Copy the store, then append a record with a counter that
        # drifted: the gate must fail and name the series.
        import shutil

        drifted = tmp_path / "drifted"
        shutil.copytree(store, drifted)
        newest = RunStore(drifted).records()[-1]
        bad_metrics = dict(newest.metrics)
        bad_metrics["counter:frames_simulated"] = 999.0
        from dataclasses import replace

        # Bump created_unix: records() orders by (created_unix, run_id),
        # and reusing the newest stamp makes the tiebreak depend on how
        # "driftrun0001" sorts against a random hex id — the drifted
        # record must be the gated "current" run every time.
        RunStore(drifted).append(
            replace(
                newest,
                run_id="driftrun0001",
                created_unix=newest.created_unix + 1.0,
                metrics=bad_metrics,
            )
        )
        capsys.readouterr()
        assert main(
            [
                "runs", "regress", "--store", str(drifted),
                "--window", "5", "--select", "counter:*",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "counter:frames_simulated" in out

    def test_regress_github_format(self, store, tmp_path, capsys):
        capsys.readouterr()
        assert main(
            [
                "runs", "regress", "--store", str(store),
                "--window", "5", "--format", "github",
                "--select", "counter:*",
            ]
        ) == 0
        assert "::error" not in capsys.readouterr().out

    def test_regress_json_format(self, store, capsys):
        capsys.readouterr()
        assert main(
            [
                "runs", "regress", "--store", str(store),
                "--window", "5", "--format", "json",
                "--select", "counter:*",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checked"] >= 1

    def test_regress_needs_enough_runs(self, trace_file, tmp_path, capsys):
        store = tmp_path / "thin"
        assert simulate(trace_file, store) == 0
        capsys.readouterr()
        assert main(["runs", "regress", "--store", str(store)]) == 1
        assert "need more than" in capsys.readouterr().err

    def test_empty_store_errors_cleanly(self, tmp_path, capsys):
        assert main(
            ["runs", "list", "--store", str(tmp_path / "none")]
        ) == 0
        assert "no run records" in capsys.readouterr().out
        assert main(
            ["runs", "show", "--store", str(tmp_path / "none"), "--", "-1"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestTraceReport:
    def test_report_from_cli_export(self, trace_file, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(
            [
                "simulate", str(trace_file), "--no-cache",
                "--no-run-store", "--trace-out", str(spans),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "report", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "span hotspots" in out
        assert "cli:simulate" in out
        assert "self s" in out

    def test_sort_and_limit(self, trace_file, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(
            [
                "simulate", str(trace_file), "--no-cache",
                "--no-run-store", "--trace-out", str(spans),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["trace", "report", str(spans), "--sort", "total", "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out
        # Sorted by total time: the CLI root span dominates.
        assert "cli:simulate" in out

    def test_bad_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["trace", "report", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_json_format_is_the_dash_spans_payload(
        self, trace_file, tmp_path, capsys
    ):
        # `trace report --format json` and GET /v1/dash/runs/{ref}/spans
        # share spans_payload; scripts can consume either identically.
        from repro.obs.dash import spans_payload

        spans = tmp_path / "spans.jsonl"
        assert main(
            [
                "simulate", str(trace_file), "--no-cache",
                "--no-run-store", "--trace-out", str(spans),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["trace", "report", str(spans), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == spans_payload(spans)
        assert payload["num_spans"] > 0
        assert payload["flame"] and payload["rollup"]


class TestRunsShowArtifacts:
    def test_subset_run_records_and_lists_sidecar(
        self, trace_file, tmp_path, capsys
    ):
        store = tmp_path / "runs"
        assert main(
            [
                "subset", str(trace_file), "--preset", "mainstream",
                "--run-store", str(store),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["runs", "show", "-1", "--store", str(store), "--artifacts"]
        ) == 0
        out = capsys.readouterr().out
        assert "artifacts:" in out
        for section in ("clusters", "fidelity", "subset"):
            assert section in out

    def test_simulate_run_reports_no_sidecar(self, trace_file, tmp_path, capsys):
        store = tmp_path / "runs"
        assert simulate(trace_file, store) == 0
        capsys.readouterr()
        assert main(
            ["runs", "show", "-1", "--store", str(store), "--artifacts"]
        ) == 0
        assert "artifacts: none" in capsys.readouterr().out
