"""End-to-end runtime acceptance: parallel == serial, warm cache == free.

These are the issue's acceptance criteria: ``--jobs 4`` must reproduce
the serial pipeline bit for bit (predictions, subset positions, weights),
and a warm-cache suite re-run must perform zero frame simulations.
"""

import pytest

from repro.analysis.suite import subset_suite
from repro.analysis.sweep import pathfinding_sweep
from repro.analysis.validation import validate_subset
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_subset
from repro.runtime.engine import Runtime
from repro.runtime.keys import task_key
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

SMALL = GameProfile.preset("bioshock1_like").scaled(0.05)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(SMALL, seed=31).generate(num_frames=10)


@pytest.fixture(scope="module")
def config():
    return GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def serial_result(trace, config):
    return SubsettingPipeline().run(trace, config)


class TestParallelMatchesSerial:
    def test_pipeline_jobs4_identical(self, trace, config, serial_result):
        parallel = SubsettingPipeline().run(
            trace, config, runtime=Runtime(jobs=4)
        )
        assert parallel.frame_predictions == serial_result.frame_predictions
        assert (
            parallel.subset.frame_positions
            == serial_result.subset.frame_positions
        )
        assert (
            parallel.subset.frame_weights == serial_result.subset.frame_weights
        )
        assert parallel == serial_result  # dataclass-wide equality

    def test_pipeline_default_runtime_identical(self, trace, config, serial_result):
        explicit = SubsettingPipeline().run(
            trace, config, runtime=Runtime.serial()
        )
        assert explicit == serial_result

    def test_sweep_jobs4_identical(self, trace):
        subset = build_subset(trace)
        serial = pathfinding_sweep(trace, subset)
        parallel = pathfinding_sweep(trace, subset, runtime=Runtime(jobs=4))
        assert parallel == serial

    def test_cached_rerun_identical(self, trace, config, serial_result, tmp_path):
        cold = SubsettingPipeline().run(
            trace, config, runtime=Runtime(jobs=2, cache_dir=tmp_path)
        )
        warm = SubsettingPipeline().run(
            trace, config, runtime=Runtime(jobs=2, cache_dir=tmp_path)
        )
        assert cold == serial_result
        assert warm == serial_result


class TestWarmCacheSkipsSimulation:
    def test_pipeline_rerun_simulates_nothing(self, trace, config, tmp_path):
        cold_runtime = Runtime(jobs=1, cache_dir=tmp_path)
        SubsettingPipeline().run(trace, config, runtime=cold_runtime)
        assert cold_runtime.metrics.snapshot().counter_total("frames_simulated") > 0

        warm_runtime = Runtime(jobs=1, cache_dir=tmp_path)
        result = SubsettingPipeline().run(trace, config, runtime=warm_runtime)
        snapshot = warm_runtime.metrics.snapshot()
        assert snapshot.counter_total("frames_simulated") == 0
        assert snapshot.counter_total("frames_clustered") == 0
        assert snapshot.counter_total("cache_hits") > 0
        assert result.telemetry is not None
        assert result.telemetry.counter_total("frames_simulated") == 0

    def test_suite_rerun_simulates_nothing(self, trace, config, tmp_path):
        traces = {"game": trace}
        clocks = (600.0, 1000.0, 1400.0)
        cold = subset_suite(
            traces,
            config,
            validation_clocks=clocks,
            runtime=Runtime(jobs=1, cache_dir=tmp_path),
        )
        assert cold.telemetry is not None
        assert cold.telemetry.counter_total("frames_simulated") > 0

        warm_runtime = Runtime(jobs=1, cache_dir=tmp_path)
        warm = subset_suite(
            traces, config, validation_clocks=clocks, runtime=warm_runtime
        )
        assert warm_runtime.metrics.snapshot().counter_total("frames_simulated") == 0
        assert warm.telemetry.counter_total("frames_simulated") == 0
        # Cached artifacts reproduce the cold-run numbers exactly.
        assert (
            warm.game_results["game"] == cold.game_results["game"]
        )
        assert warm.validations["game"] == cold.validations["game"]
        assert "[runtime]" in warm.report()

    def test_validate_shares_artifacts_within_run(self, trace, config, tmp_path):
        # The clock sweep and the transfer check both simulate the parent
        # on the base config; with a cache they share one artifact.
        subset = build_subset(trace)
        runtime = Runtime(jobs=1, cache_dir=tmp_path)
        validate_subset(
            trace, subset, config, (600.0, 1000.0, 1400.0), runtime=runtime
        )
        assert runtime.metrics.snapshot().counter_total("cache_hits") > 0


class TestCorruptionRecovery:
    def test_corrupted_artifact_recomputed(self, trace, config, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path)
        reference = runtime.simulate_trace(trace, config)

        key = task_key("simulate_frames", trace=trace)
        path = tmp_path / key[:2] / f"{key}.pkl"
        assert path.exists()
        path.write_bytes(b"garbage")

        healed_runtime = Runtime(jobs=1, cache_dir=tmp_path)
        healed = healed_runtime.simulate_trace(trace, config)
        assert healed == reference
        snapshot = healed_runtime.metrics.snapshot()
        assert snapshot.counter_total("cache_corrupt_evicted") == 1
        assert snapshot.counter_total("frames_simulated") == trace.num_frames
        # And the healed entry serves the next run.
        final_runtime = Runtime(jobs=1, cache_dir=tmp_path)
        assert final_runtime.simulate_trace(trace, config) == reference
        assert final_runtime.metrics.snapshot().counter_total("frames_simulated") == 0
