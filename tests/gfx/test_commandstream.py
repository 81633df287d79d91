"""Tests for the API command stream and its interpreter."""

import pytest

from repro.errors import TraceError, ValidationError
from repro.gfx.commands import (
    BindShader,
    BindTextures,
    Draw,
    EndFrame,
    SetPipelineState,
    SetRenderTargets,
    SetVertexStream,
)
from repro.gfx.commandstream import (
    frames_to_commands,
    interpret_commands,
)
from repro.gfx.enums import PassType, PrimitiveTopology
from repro.gfx.state import FULLSCREEN_STATE, OPAQUE_STATE

from tests.conftest import COLOR_RT, DEPTH_RT, make_draw, make_world


def minimal_stream():
    """One valid frame: bind everything, draw twice, present."""
    return [
        SetRenderTargets((COLOR_RT,), DEPTH_RT, PassType.FORWARD),
        BindShader(1),
        SetPipelineState(OPAQUE_STATE),
        BindTextures((10,)),
        SetVertexStream(32, PrimitiveTopology.TRIANGLE_LIST),
        Draw(vertex_count=300, pixels_rasterized=1000, pixels_shaded=800),
        Draw(vertex_count=600, pixels_rasterized=2000, pixels_shaded=1500),
        EndFrame(),
    ]


class TestInterpreter:
    def test_minimal_stream(self):
        frames = interpret_commands(minimal_stream())
        assert len(frames) == 1
        frame = frames[0]
        assert frame.num_draws == 2
        draws = frame.draw_list
        assert draws[0].shader_id == 1
        assert draws[0].texture_ids == (10,)
        assert draws[1].vertex_count == 600
        assert draws[0].depth_target_id == DEPTH_RT

    def test_state_persists_across_draws(self):
        frames = interpret_commands(minimal_stream())
        a, b = frames[0].draw_list
        assert a.state == b.state == OPAQUE_STATE

    def test_target_change_opens_new_pass(self):
        stream = minimal_stream()[:-1]  # drop EndFrame
        stream += [
            SetRenderTargets((COLOR_RT,), None, PassType.POST),
            SetPipelineState(FULLSCREEN_STATE),
            Draw(vertex_count=3, pixels_rasterized=100, pixels_shaded=100),
            EndFrame(),
        ]
        frames = interpret_commands(stream)
        assert len(frames[0].passes) == 2
        assert frames[0].passes[1].pass_type is PassType.POST

    def test_draw_without_shader_rejected(self):
        stream = [
            SetRenderTargets((COLOR_RT,), DEPTH_RT),
            SetPipelineState(OPAQUE_STATE),
            Draw(vertex_count=3, pixels_rasterized=1, pixels_shaded=1),
        ]
        with pytest.raises(TraceError, match="no shader bound"):
            interpret_commands(stream)

    def test_draw_without_targets_rejected(self):
        stream = [
            BindShader(1),
            SetPipelineState(OPAQUE_STATE),
            Draw(vertex_count=3, pixels_rasterized=1, pixels_shaded=1),
        ]
        with pytest.raises(TraceError, match="no render targets"):
            interpret_commands(stream)

    def test_targets_do_not_survive_present(self):
        stream = minimal_stream() + [
            BindShader(1),
            SetPipelineState(OPAQUE_STATE),
            Draw(vertex_count=3, pixels_rasterized=1, pixels_shaded=1),
            EndFrame(),
        ]
        with pytest.raises(TraceError, match="no render targets"):
            interpret_commands(stream)

    def test_truncated_stream_rejected(self):
        with pytest.raises(TraceError, match="missing EndFrame"):
            interpret_commands(minimal_stream()[:-1])

    def test_empty_frame_rejected(self):
        with pytest.raises(TraceError, match="no draws"):
            interpret_commands([EndFrame()])

    def test_unknown_command_rejected(self):
        with pytest.raises(TraceError, match="unknown command"):
            interpret_commands(["present please"])

    def test_frame_indices_sequential(self):
        stream = minimal_stream() + minimal_stream()
        frames = interpret_commands(stream)
        assert [f.index for f in frames] == [0, 1]


class TestCommandValidation:
    def test_draw_shaded_bound(self):
        with pytest.raises(ValidationError):
            Draw(vertex_count=3, pixels_rasterized=1, pixels_shaded=2)

    def test_set_targets_needs_one(self):
        with pytest.raises(ValidationError):
            SetRenderTargets((), None)

    def test_vertex_stream_positive_stride(self):
        with pytest.raises(ValidationError):
            SetVertexStream(0, PrimitiveTopology.TRIANGLE_LIST)


class TestRoundTrip:
    def test_draw_sequence_survives(self, simple_trace):
        commands = frames_to_commands(simple_trace.frames)
        back = interpret_commands(commands)
        original = [d for f in simple_trace.frames for d in f.draws()]
        rebuilt = [d for f in back for d in f.draws()]
        assert rebuilt == original

    def test_simulation_identical_after_roundtrip(self, simple_trace):
        import dataclasses

        from repro.simgpu.batch import simulate_trace_multi
        from repro.simgpu.config import GpuConfig

        commands = frames_to_commands(simple_trace.frames)
        back = interpret_commands(commands)
        rebuilt = dataclasses.replace(simple_trace, frames=tuple(back))
        config = GpuConfig.preset("mainstream")
        a = simulate_trace_multi(simple_trace, [config])[0].total_time_ns
        b = simulate_trace_multi(rebuilt, [config])[0].total_time_ns
        assert b == pytest.approx(a, rel=1e-12)

    def test_stream_is_minimal(self):
        # 8 identical draws need state commands once, draws 8 times.
        draws = [make_draw(shader_id=1) for _ in range(8)]
        trace = make_world([draws])
        commands = frames_to_commands(trace.frames)
        draw_commands = [c for c in commands if isinstance(c, Draw)]
        assert len(draw_commands) == 8
        assert len(commands) == 8 + 5 + 1  # 5 state setups + EndFrame

    def test_synth_trace_roundtrip(self):
        from repro.synth.generator import TraceGenerator
        from repro.synth.profiles import GameProfile

        profile = GameProfile.preset("bioshock1_like").scaled(0.05)
        trace = TraceGenerator(profile, seed=1).generate(num_frames=4)
        commands = frames_to_commands(trace.frames)
        back = interpret_commands(commands)
        original = [d for f in trace.frames for d in f.draws()]
        rebuilt = [d for f in back for d in f.draws()]
        assert rebuilt == original
