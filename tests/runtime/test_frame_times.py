"""Frame totals as their own task kind and artifact.

``Runtime.frame_times_many`` must equal the per-draw path's frame times
bit for bit under any worker count and cache state, keep one row per
config in its trace's table so an extended sweep simulates only new
candidates, and never write per-draw artifacts.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sweep import pathfinding_sweep
from repro.core.subsetting import build_subset
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import Runtime
from repro.runtime.keys import config_digest, task_key
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

SMALL = GameProfile.preset("bioshock1_like").scaled(0.05)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(SMALL, seed=41).generate(num_frames=9)


@pytest.fixture(scope="module")
def candidates():
    base = GpuConfig.preset("mainstream")
    return [
        base,
        base.with_core_clock(1400.0),
        base.scaled(name="small-tex", tex_cache_kb=16),
        GpuConfig.preset("lowpower"),
    ]


def _per_draw_frame_times(trace, configs):
    reference = Runtime()
    return [
        [out.time_ns for out in reference.simulate_frames(trace, config)]
        for config in configs
    ]


def _artifacts(cache_dir: Path):
    return sorted(p.stem for p in cache_dir.rglob("*.pkl"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_totals_equal_per_draw_frame_times_cold_and_warm(
    trace, candidates, jobs, tmp_path, pooled_fan_outs
):
    expected = _per_draw_frame_times(trace, candidates)
    for state in ("cold", "warm"):
        runtime = Runtime(jobs=jobs, cache_dir=tmp_path)
        totals = runtime.frame_times_many(trace, candidates, label="totals")
        assert totals.shape == (len(candidates), trace.num_frames)
        assert totals.dtype == np.float64
        assert totals.tolist() == expected, state
        simulated = runtime.metrics.snapshot().counter_total("frames_simulated")
        if state == "cold":
            assert simulated == len(candidates) * trace.num_frames
        else:
            assert simulated == 0


def test_duplicate_configs_simulate_once(trace, candidates):
    runtime = Runtime(jobs=1)
    configs = [candidates[0], candidates[1], candidates[0]]
    totals = runtime.frame_times_many(trace, configs)
    assert totals[0].tolist() == totals[2].tolist()
    assert runtime.metrics.snapshot().counter_total("frames_simulated") == 2 * trace.num_frames


def test_no_configs(trace):
    assert Runtime().frame_times_many(trace, []).shape == (0, trace.num_frames)


def test_extended_sweep_simulates_only_the_new_candidate(
    trace, candidates, tmp_path, pooled_fan_outs
):
    subset = build_subset(trace)
    subset_frames = subset.num_frames
    first = Runtime(jobs=2, cache_dir=tmp_path)
    pathfinding_sweep(trace, subset, candidates[:3], runtime=first)
    assert first.metrics.snapshot().counter_total("frames_simulated") == 3 * (
        trace.num_frames + subset_frames
    )

    extended = Runtime(jobs=2, cache_dir=tmp_path)
    result = pathfinding_sweep(trace, subset, candidates, runtime=extended)
    assert extended.metrics.snapshot().counter_total("frames_simulated") == (
        trace.num_frames + subset_frames
    )
    assert result == pathfinding_sweep(trace, subset, candidates, runtime=Runtime())


def test_sweep_writes_no_per_draw_artifact(trace, candidates, tmp_path):
    subset = build_subset(trace)
    pathfinding_sweep(trace, subset, candidates, runtime=Runtime(jobs=1, cache_dir=tmp_path))
    traces = (trace, subset.materialize(trace))
    tables = sorted(task_key("frame_times", trace=t) for t in traces)
    assert _artifacts(tmp_path) == tables
    cache = ArtifactCache(tmp_path)
    for t in traces:
        assert task_key("simulate_frames", trace=t) not in tables
        rows = cache.get(task_key("frame_times", trace=t))
        assert set(rows) == {config_digest(c) for c in candidates}


def test_totals_do_not_read_per_draw_artifacts(trace, candidates, tmp_path):
    Runtime(jobs=1, cache_dir=tmp_path).simulate_frames_many(trace, candidates)
    runtime = Runtime(jobs=1, cache_dir=tmp_path)
    runtime.frame_times_many(trace, candidates)
    assert runtime.metrics.snapshot().counter_total("frames_simulated") == len(candidates) * trace.num_frames


def test_corrupted_totals_artifact_is_evicted_and_recomputed(trace, candidates, tmp_path):
    config = candidates[1]
    reference = Runtime(jobs=1, cache_dir=tmp_path).frame_times_many(trace, [config])
    key = task_key("frame_times", trace=trace)
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.write_bytes(path.read_bytes()[:20])

    healed = Runtime(jobs=1, cache_dir=tmp_path)
    assert healed.frame_times_many(trace, [config]).tolist() == reference.tolist()
    snapshot = healed.metrics.snapshot()
    assert snapshot.counter_total("cache_corrupt_evicted") == 1
    assert snapshot.counter_total("frames_simulated") == trace.num_frames

    final = Runtime(jobs=1, cache_dir=tmp_path)
    assert final.frame_times_many(trace, [config]).tolist() == reference.tolist()
    assert final.metrics.snapshot().counter_total("frames_simulated") == 0


def test_concurrent_extension_keeps_both_rows(trace, candidates, tmp_path, monkeypatch):
    first, second = candidates[0], candidates[1]
    writer = Runtime(jobs=1, cache_dir=tmp_path)
    other = Runtime(jobs=1, cache_dir=tmp_path)
    run = writer.engine.run

    def run_while_another_writer_puts(tasks, context=None):
        values = run(tasks, context)
        other.frame_times_many(trace, [second])
        return values

    monkeypatch.setattr(writer.engine, "run", run_while_another_writer_puts)
    writer.frame_times_many(trace, [first])

    reader = Runtime(jobs=1, cache_dir=tmp_path)
    totals = reader.frame_times_many(trace, [first, second])
    assert reader.metrics.snapshot().counter_total("frames_simulated") == 0
    assert totals.tolist() == _per_draw_frame_times(trace, [first, second])
