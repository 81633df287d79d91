"""Tests for the holistic subset-validation API."""

import pytest

from repro.analysis.validation import (
    CORRELATION_THRESHOLD,
    validate_subset,
)
from repro.baselines.framesample import every_nth_frame_subset
from repro.core.subsetting import build_subset
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")
CLOCKS = (600.0, 1000.0, 1400.0)


@pytest.fixture(scope="module")
def game_trace():
    profile = GameProfile.preset("bioshock1_like").scaled(0.06)
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
        )
    )
    return TraceGenerator(profile, seed=41).generate(script=script)


class TestValidateSubset:
    def test_phase_subset_passes(self, game_trace):
        subset = build_subset(game_trace)
        validation = validate_subset(game_trace, subset, CFG, CLOCKS, runtime=Runtime())
        assert validation.passed, validation.report()
        assert len(validation.checks) == 3

    def test_checks_have_thresholds(self, game_trace):
        subset = build_subset(game_trace)
        validation = validate_subset(game_trace, subset, CFG, CLOCKS, runtime=Runtime())
        names = [c.name for c in validation.checks]
        assert "frequency-scaling correlation" in names
        assert "cross-architecture transfer error" in names
        assert "candidate-ranking agreement" in names
        corr = validation.checks[0]
        assert corr.threshold == CORRELATION_THRESHOLD

    def test_report_renders_with_verdict(self, game_trace):
        subset = build_subset(game_trace)
        validation = validate_subset(game_trace, subset, CFG, CLOCKS, runtime=Runtime())
        text = validation.report()
        assert "VERDICT: PASS" in text
        assert game_trace.name in text

    def test_terrible_subset_fails(self, game_trace):
        # A single-frame periodic subset (first frame stands for everything)
        # generally misestimates the mixed workload.
        subset = every_nth_frame_subset(game_trace, stride=game_trace.num_frames)
        validation = validate_subset(game_trace, subset, CFG, CLOCKS, runtime=Runtime())
        transfer = next(
            c for c in validation.checks if "transfer" in c.name
        )
        # One explore frame cannot represent explore+combat mixes well.
        assert transfer.measured > 0.0
        assert "VERDICT" in validation.report()

    def test_good_periodic_subset_also_passes(self, game_trace):
        # Dense periodic sampling is a legitimate subset; the validator is
        # method-agnostic.
        subset = every_nth_frame_subset(game_trace, stride=2)
        validation = validate_subset(game_trace, subset, CFG, CLOCKS, runtime=Runtime())
        assert validation.passed
