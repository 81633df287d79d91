"""Tests for performance-signal phase detection (E10's foil)."""

import numpy as np
import pytest

from repro.core.perfphase import (
    cross_architecture_agreement,
    detect_phases_from_performance,
    pass_time_matrix,
)
from repro.errors import PhaseDetectionError
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

SMALL = GameProfile.preset("bioshock1_like").scaled(0.06)


@pytest.fixture(scope="module")
def game_trace():
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
        )
    )
    return TraceGenerator(SMALL, seed=31).generate(script=script)


class TestPassTimeMatrix:
    def test_shape_and_totals(self, game_trace):
        config = GpuConfig.preset("mainstream")
        matrix = pass_time_matrix(game_trace, config, runtime=Runtime())
        assert matrix.shape[0] == game_trace.num_frames
        assert matrix.shape[1] >= 3  # forward, shadow, post, ui, ...
        assert np.all(matrix >= 0)
        assert np.all(matrix.sum(axis=1) > 0)

    def test_architecture_changes_matrix(self, game_trace):
        a = pass_time_matrix(game_trace, GpuConfig.preset("lowpower"), runtime=Runtime())
        b = pass_time_matrix(game_trace, GpuConfig.preset("highend"), runtime=Runtime())
        assert a.shape == b.shape
        assert not np.allclose(a, b)


class TestDetectFromPerformance:
    def test_finds_repetition(self, game_trace):
        matrix = pass_time_matrix(game_trace, GpuConfig.preset("mainstream"), runtime=Runtime())
        phases = detect_phases_from_performance(matrix, interval_length=4)
        assert len(phases) == 6
        assert max(phases) + 1 < len(phases)  # some repetition found

    def test_tolerance_zero_splits_everything(self, game_trace):
        matrix = pass_time_matrix(game_trace, GpuConfig.preset("mainstream"), runtime=Runtime())
        strict = detect_phases_from_performance(matrix, 4, tolerance=0.0)
        loose = detect_phases_from_performance(matrix, 4, tolerance=0.5)
        assert max(strict) >= max(loose)

    def test_bad_inputs_rejected(self):
        with pytest.raises(PhaseDetectionError):
            detect_phases_from_performance(np.empty((0, 3)))
        with pytest.raises(PhaseDetectionError):
            detect_phases_from_performance(np.ones((4, 2)), tolerance=-1)


class TestAgreement:
    def test_identical_labelings(self):
        assert cross_architecture_agreement((0, 1, 0, 2), (0, 1, 0, 2)) == 1.0

    def test_renamed_labels_still_agree(self):
        assert cross_architecture_agreement((0, 1, 0), (5, 7, 5)) == 1.0

    def test_disagreement_detected(self):
        value = cross_architecture_agreement((0, 0, 1, 1), (0, 1, 0, 1))
        assert value < 1.0

    def test_bounds(self):
        value = cross_architecture_agreement((0, 1, 2, 0), (0, 0, 0, 0))
        assert 0.0 <= value <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(PhaseDetectionError):
            cross_architecture_agreement((0, 1), (0, 1, 2))

    def test_single_interval_rejected(self):
        with pytest.raises(PhaseDetectionError):
            cross_architecture_agreement((0,), (0,))
