"""CLI observability flags: --trace-out/--metrics-out/--manifest-out/--log-json."""

import json

import pytest

from repro.cli import main
from repro.obs.export import validate_chrome_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-obs") / "t.json"
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


class TestTraceOut:
    def test_chrome_trace_is_valid_and_nested(self, trace_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "simulate", str(trace_file), "--no-cache",
                    "--trace-out", str(out),
                ]
            )
            == 0
        )
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        # Spans from the CLI, stage, task, and simulator layers.
        assert "cli:simulate" in names
        assert "task:simulate_frame_range" in names
        assert "simulate_frame" in names
        by_id = {e["args"]["span_id"]: e for e in events}
        roots = [e for e in events if e["args"]["parent_id"] is None]
        assert [e["name"] for e in roots] == ["cli:simulate"]
        for event in events:
            parent = event["args"]["parent_id"]
            if parent is not None:
                assert parent in by_id

    def test_jsonl_suffix_switches_format(self, trace_file, tmp_path):
        out = tmp_path / "spans.jsonl"
        assert (
            main(
                [
                    "simulate", str(trace_file), "--no-cache",
                    "--trace-out", str(out),
                ]
            )
            == 0
        )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records
        assert {"span_id", "parent_id", "name", "start_ns"} <= set(records[0])


class TestMetricsAndManifestOut:
    def test_outputs_cover_the_run(self, trace_file, tmp_path):
        metrics_out = tmp_path / "metrics.json"
        manifest_out = tmp_path / "run.json"
        assert (
            main(
                [
                    "subset", str(trace_file), "--no-cache", "--jobs", "2",
                    "--metrics-out", str(metrics_out),
                    "--manifest-out", str(manifest_out),
                ]
            )
            == 0
        )
        metrics = json.loads(metrics_out.read_text())
        frames = {
            c["labels"]["phase"]: c["value"]
            for c in metrics["counters"]
            if c["name"] == "frames_simulated"
        }
        assert frames["ground_truth"] == 5
        assert frames["representatives"] == 5
        assert any(h["name"] == "cluster_size" for h in metrics["histograms"])
        assert any(h["name"] == "task_wall_s" for h in metrics["histograms"])

        manifest = json.loads(manifest_out.read_text())
        assert manifest["command"] == "subset"
        assert manifest["seeds"] == {"pipeline": 0}
        assert manifest["jobs"] == 2
        assert list(manifest["config_digests"]) == ["mainstream"]
        assert len(manifest["trace_digests"]) == 1
        # The record carries the snapshot flattened; --metrics-out has it whole.
        assert manifest["metrics"]["counter:frames_simulated"] == 10

    def test_manifest_digest_matches_cache_key_digest(self, trace_file, tmp_path):
        from repro.gfx.traceio import load_trace_auto
        from repro.runtime.keys import trace_digest

        manifest_out = tmp_path / "run.json"
        assert (
            main(
                [
                    "simulate", str(trace_file), "--no-cache",
                    "--manifest-out", str(manifest_out),
                ]
            )
            == 0
        )
        manifest = json.loads(manifest_out.read_text())
        trace = load_trace_auto(str(trace_file))
        assert manifest["trace_digests"][trace.name] == trace_digest(trace)


class TestRunRecordTiming:
    def test_duration_covers_trace_load(self, trace_file, tmp_path, monkeypatch):
        import time

        from repro import cli
        from repro.obs.history import RunStore

        load_trace_auto = cli.load_trace_auto

        def slow_load(path):
            time.sleep(0.5)
            return load_trace_auto(path)

        monkeypatch.setattr(cli, "load_trace_auto", slow_load)
        store_dir = tmp_path / "runs"
        argv = ["simulate", str(trace_file), "--no-cache", "--run-store", str(store_dir)]
        assert main(argv) == 0
        (record,) = RunStore(store_dir).records()
        assert record.metrics["derived:duration_s"] >= 0.5


class TestLogJson:
    def test_run_start_and_end_events(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--no-cache", "--log-json"]) == 0
        err_lines = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.strip()
        ]
        events = [r["event"] for r in err_lines]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        end = err_lines[-1]
        assert end["frames_simulated"] == 5
        assert end["duration_s"] > 0
