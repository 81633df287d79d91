"""Tests for automatic radius calibration."""

import pytest

from repro.core.calibrate import calibrate_radius
from repro.errors import ClusteringError
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def trace():
    game = GameProfile.preset("bioshock1_like").scaled(0.1)
    return TraceGenerator(game, seed=4).generate(num_frames=16)


class TestCalibrateRadius:
    def test_hits_target_efficiency(self, trace):
        result = calibrate_radius(
            trace, CFG, target_efficiency=0.5, iterations=8, sample_frames=6
        )
        assert abs(result.achieved.mean_efficiency - 0.5) < 0.12

    def test_error_budget_respected(self, trace):
        result = calibrate_radius(
            trace, CFG, max_error=0.01, iterations=8, sample_frames=6
        )
        assert result.achieved.mean_error <= 0.01 + 1e-9

    def test_error_budget_picks_largest_feasible(self, trace):
        tight = calibrate_radius(
            trace, CFG, max_error=0.002, iterations=8, sample_frames=6
        )
        loose = calibrate_radius(
            trace, CFG, max_error=0.05, iterations=8, sample_frames=6
        )
        assert loose.radius >= tight.radius
        assert loose.achieved.mean_efficiency >= tight.achieved.mean_efficiency

    def test_history_recorded(self, trace):
        result = calibrate_radius(
            trace, CFG, target_efficiency=0.5, iterations=5, sample_frames=4
        )
        assert len(result.history) == 5
        for point in result.history:
            assert 0.0 <= point.mean_efficiency < 1.0

    def test_requires_exactly_one_objective(self, trace):
        with pytest.raises(ClusteringError, match="exactly one"):
            calibrate_radius(trace, CFG)
        with pytest.raises(ClusteringError, match="exactly one"):
            calibrate_radius(trace, CFG, target_efficiency=0.5, max_error=0.01)

    def test_bad_targets_rejected(self, trace):
        with pytest.raises(ClusteringError):
            calibrate_radius(trace, CFG, target_efficiency=1.5)
        with pytest.raises(ClusteringError):
            calibrate_radius(trace, CFG, max_error=-0.1)
        with pytest.raises(ClusteringError, match="radius_bounds"):
            calibrate_radius(
                trace, CFG, target_efficiency=0.5, radius_bounds=(2.0, 1.0)
            )

    def test_simulates_only_the_sampled_frames(self, trace, simulated_frames):
        calibrate_radius(
            trace, CFG, target_efficiency=0.5, iterations=3, sample_frames=6
        )
        assert len(simulated_frames) == 6 < trace.num_frames

    def test_infeasible_budget_falls_back_to_tightest(self, trace):
        result = calibrate_radius(
            trace,
            CFG,
            max_error=1e-12,
            iterations=4,
            sample_frames=4,
            radius_bounds=(0.05, 1.0),
        )
        assert result.radius == 0.05
