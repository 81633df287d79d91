"""``--manifest-out``: the run's one record, byte for byte what the store keeps."""

import json

import pytest

from repro import __version__
from repro.cli import main
from repro.gfx.traceio import load_trace_auto
from repro.obs.history import RunRecord, RunStore
from repro.runtime.keys import config_digest, trace_digest
from repro.simgpu.config import GpuConfig


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "t.json"
    argv = ["generate", "--game", "bioshock1_like", "--frames", "5",
            "--scale", "0.05", "-o", str(path)]
    assert main(argv) == 0
    return path


def _subset(trace_file, manifest, *flags):
    argv = ["subset", str(trace_file), "--no-cache",
            "--manifest-out", str(manifest), *flags]
    assert main(argv) == 0
    return argv, RunRecord.from_dict(json.loads(manifest.read_text()))


class TestCollect:
    def test_reproduces_cache_digests(self, trace_file, tmp_path):
        _, record = _subset(trace_file, tmp_path / "run.json", "--no-run-store")
        config = GpuConfig.preset("mainstream")
        trace = load_trace_auto(str(trace_file))
        assert record.config_digests == {config.name: config_digest(config)}
        assert record.trace_digests == {trace.name: trace_digest(trace)}

    def test_records_seeds_and_environment(self, trace_file, tmp_path):
        argv, record = _subset(
            trace_file, tmp_path / "run.json", "--jobs", "2", "--no-run-store"
        )
        assert record.command == "subset"
        assert record.argv == tuple(argv)
        assert record.seeds == {"pipeline": 0}
        assert record.jobs == 2
        assert record.environment["package_version"] == __version__
        assert record.environment["host_cpu_count"] >= 1

    def test_metrics_snapshot_flattens(self, trace_file, tmp_path):
        _, record = _subset(trace_file, tmp_path / "run.json", "--no-run-store")
        assert record.metrics["counter:frames_simulated{phase=ground_truth}"] == 5
        assert record.metrics["derived:duration_s"] > 0
        assert set(record.top_stages) >= {"cluster", "ground_truth"}


class TestRoundTrip:
    def test_write_and_load(self, trace_file, tmp_path):
        store = RunStore(tmp_path / "runs")
        manifest = tmp_path / "run.json"
        _, record = _subset(trace_file, manifest, "--run-store", str(store.root))
        (stored,) = store.paths()
        assert manifest.read_bytes() == stored.read_bytes()
        assert stored.name.endswith(f"-{record.run_id}.json")
        # The sidecar link is the stored record's, not a second copy.
        assert set(store.load_artifacts(record)) == set(
            record.extra["artifacts"]["sections"]
        )

        # Without a store the file is still written, with no sidecar link.
        _, alone = _subset(trace_file, tmp_path / "alone.json", "--no-run-store")
        assert alone.command == "subset"
        assert "artifacts" not in alone.extra
        assert len(store.paths()) == 1
