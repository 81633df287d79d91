"""Tests for sampling baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.draw_sampling import (
    first_n_draw_sample,
    random_draw_sample,
    systematic_draw_sample,
)
from repro.baselines.framesample import every_nth_frame_subset
from repro.baselines.simpoint_like import frame_shader_matrix, simpoint_frames_subset
from repro.errors import SubsetError
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

SMALL = GameProfile.preset("bioshock1_like").scaled(0.06)


@pytest.fixture(scope="module")
def game_trace():
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 6),
            Segment(SegmentKind.COMBAT, 0, 6),
            Segment(SegmentKind.EXPLORE, 0, 6),
        )
    )
    return TraceGenerator(SMALL, seed=9).generate(script=script)


class TestDrawSampling:
    def test_random_sample_properties(self):
        sample = random_draw_sample(100, 10, seed=1)
        assert sample.budget == 10
        assert len(set(sample.indices)) == 10
        assert all(0 <= i < 100 for i in sample.indices)
        assert sum(sample.weights) == pytest.approx(100.0)

    def test_random_deterministic_by_seed(self):
        a = random_draw_sample(100, 10, seed=1)
        b = random_draw_sample(100, 10, seed=1)
        c = random_draw_sample(100, 10, seed=2)
        assert a.indices == b.indices
        assert a.indices != c.indices

    def test_systematic_even_coverage(self):
        sample = systematic_draw_sample(100, 4)
        assert sample.indices == (0, 25, 50, 75)

    def test_first_n(self):
        sample = first_n_draw_sample(100, 3)
        assert sample.indices == (0, 1, 2)

    def test_full_budget_is_exact(self):
        times = np.arange(1.0, 11.0)
        for build in (
            lambda: random_draw_sample(10, 10, seed=0),
            lambda: systematic_draw_sample(10, 10),
            lambda: first_n_draw_sample(10, 10),
        ):
            sample = build()
            assert sample.predict_time_ns(times) == pytest.approx(times.sum())

    def test_bad_budget_rejected(self):
        for bad in (0, 101):
            with pytest.raises(SubsetError):
                random_draw_sample(100, bad)
            with pytest.raises(SubsetError):
                systematic_draw_sample(100, bad)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        frac=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_estimates_unbiased_on_uniform_times(self, n, frac):
        budget = max(1, int(n * frac))
        times = np.full(n, 3.0)
        sample = systematic_draw_sample(n, budget)
        assert sample.predict_time_ns(times) == pytest.approx(3.0 * n)


class TestFrameSample:
    def test_weights_cover_parent(self, game_trace):
        subset = every_nth_frame_subset(game_trace, stride=4)
        assert sum(subset.frame_weights) == pytest.approx(game_trace.num_frames)

    def test_positions_are_periodic(self, game_trace):
        subset = every_nth_frame_subset(game_trace, stride=5)
        assert subset.frame_positions == (0, 5, 10, 15)

    def test_stride_one_keeps_everything(self, game_trace):
        subset = every_nth_frame_subset(game_trace, stride=1)
        assert subset.num_frames == game_trace.num_frames
        assert subset.frame_fraction == 1.0

    def test_bad_stride_rejected(self, game_trace):
        with pytest.raises(SubsetError):
            every_nth_frame_subset(game_trace, stride=0)

    def test_tail_window_weight(self, game_trace):
        # 18 frames, stride 4 -> windows 4,4,4,4,2
        subset = every_nth_frame_subset(game_trace, stride=4)
        assert subset.frame_weights[-1] == 2.0


class TestSimPointLike:
    def test_shader_matrix_shape(self, game_trace):
        matrix = frame_shader_matrix(game_trace)
        assert matrix.shape == (
            game_trace.num_frames,
            len(game_trace.shaders),
        )
        # Row sums equal per-frame draw counts.
        for i, frame in enumerate(game_trace.frames):
            assert matrix[i].sum() == frame.num_draws

    def test_subset_valid(self, game_trace):
        subset = simpoint_frames_subset(game_trace, seed=0)
        assert 1 <= subset.num_frames <= game_trace.num_frames
        assert sum(subset.frame_weights) == pytest.approx(game_trace.num_frames)
        assert subset.method == "simpoint_frames"

    def test_finds_repetition(self, game_trace):
        # Two explore segments out of three: fewer kept frames than frames.
        subset = simpoint_frames_subset(game_trace, seed=0)
        assert subset.num_frames < game_trace.num_frames

    def test_estimate_reasonable(self, game_trace):
        from repro.runtime.engine import Runtime
        from repro.simgpu.config import GpuConfig

        config = GpuConfig.preset("mainstream")
        subset = simpoint_frames_subset(game_trace, seed=0)
        actual = Runtime().simulate_trace(game_trace, config).total_time_ns
        estimate = subset.estimate_on_config(game_trace, config, runtime=Runtime())
        assert abs(estimate - actual) / actual < 0.25

    def test_single_frame_rejected(self, simple_trace):
        single = simple_trace.subset_frames([0])
        with pytest.raises(SubsetError, match="two frames"):
            simpoint_frames_subset(single)
