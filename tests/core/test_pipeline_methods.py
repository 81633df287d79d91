"""Pipeline end-to-end with non-default clustering algorithms and phases."""

import pytest

from repro.core.pipeline import SubsettingPipeline
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def small_trace():
    profile = GameProfile.preset("bioshock1_like").scaled(0.05)
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
        )
    )
    return TraceGenerator(profile, seed=71).generate(script=script)


class TestPipelineVariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cluster_method": "kmeans", "k": 24},
            {"cluster_method": "agglomerative", "radius": 0.3},
            {"cluster_method": "leader", "normalize": "minmax", "radius": 0.05},
            {"phase_mode": "equality", "phase_tolerance": 0.25},
            {"interval_length": 2},
            {"interval_length": 8},
        ],
    )
    def test_variant_runs_and_stays_sane(self, small_trace, kwargs):
        pipeline = SubsettingPipeline(**kwargs)
        result = pipeline.run(small_trace, CFG, runtime=Runtime())
        assert result.mean_prediction_error < 0.10
        assert 0.0 < result.mean_efficiency < 1.0
        assert result.subset.num_frames >= 1
        assert result.subset_time_error < 0.25

    def test_interval_one_keeps_fewest_frames_on_smooth_trace(self, small_trace):
        fine = SubsettingPipeline(interval_length=1).run(small_trace, CFG, runtime=Runtime())
        coarse = SubsettingPipeline(interval_length=8).run(small_trace, CFG, runtime=Runtime())
        # Finer intervals find more merges on a smooth capture.
        assert fine.subset.num_frames <= coarse.subset.num_frames + 4

    def test_lowpower_config_also_works(self, small_trace):
        result = SubsettingPipeline().run(
            small_trace, GpuConfig.preset("lowpower"), runtime=Runtime()
        )
        assert result.mean_prediction_error < 0.10
