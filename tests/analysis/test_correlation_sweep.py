"""Tests for the correlation experiment and pathfinding sweeps."""

import pytest

from repro.analysis.correlation import subset_parent_correlation
from repro.analysis.sweep import default_candidates, pathfinding_sweep
from repro.core.subsetting import build_subset
from repro.errors import ValidationError
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")
SMALL = GameProfile.preset("bioshock1_like").scaled(0.06)
CLOCKS = (600.0, 900.0, 1200.0, 1500.0)


@pytest.fixture(scope="module")
def parent_and_subset():
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
        )
    )
    trace = TraceGenerator(SMALL, seed=4).generate(script=script)
    return trace, build_subset(trace)


class TestCorrelation:
    def test_high_correlation(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = subset_parent_correlation(trace, subset, CFG, CLOCKS, runtime=Runtime())
        assert result.correlation > 0.99

    def test_improvement_curves_monotone(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = subset_parent_correlation(trace, subset, CFG, CLOCKS, runtime=Runtime())
        parent = result.parent_improvements_percent
        assert list(parent) == sorted(parent)
        assert all(v > 0 for v in parent)

    def test_gap_small(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = subset_parent_correlation(trace, subset, CFG, CLOCKS, runtime=Runtime())
        assert result.max_improvement_gap_points < 3.0

    def test_records_inputs(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = subset_parent_correlation(trace, subset, CFG, CLOCKS, runtime=Runtime())
        assert result.clocks_mhz == CLOCKS
        assert result.subset_method == "phase"
        assert len(result.parent_times_ns) == len(CLOCKS)


class TestPathfinding:
    def test_ranking_agreement(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = pathfinding_sweep(trace, subset, runtime=Runtime())
        assert result.ranking_agreement > 0.9
        assert result.winner_agrees()

    def test_candidates_ordered_sensibly(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = pathfinding_sweep(trace, subset, runtime=Runtime())
        by_name = dict(zip(result.config_names, result.parent_times_ns))
        # The low-power part must be slowest; high-end fastest.
        assert by_name["lowpower"] == max(result.parent_times_ns)
        assert by_name["highend"] == min(result.parent_times_ns)

    def test_more_cores_helps(self, parent_and_subset):
        trace, subset = parent_and_subset
        result = pathfinding_sweep(trace, subset, runtime=Runtime())
        by_name = dict(zip(result.config_names, result.parent_times_ns))
        assert by_name["mainstream+cores"] < by_name["mainstream"]

    def test_duplicate_candidate_names_rejected(self, parent_and_subset):
        trace, subset = parent_and_subset
        config = GpuConfig.preset("mainstream")
        with pytest.raises(ValidationError, match="unique"):
            pathfinding_sweep(trace, subset, [config, config], runtime=Runtime())

    def test_default_candidates_valid(self):
        candidates = default_candidates()
        assert len(candidates) >= 4
        assert len({c.name for c in candidates}) == len(candidates)
