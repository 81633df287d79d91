"""Tests for the compact binary trace format."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.gfx.enums import (
    BlendMode,
    CullMode,
    DepthMode,
    PassType,
    PrimitiveTopology,
    TextureFormat,
)
from repro.gfx.frame import Frame, RenderPass
from repro.gfx.resources import BufferDesc
from repro.gfx.tracebin import read_trace_binary, write_trace_binary
from repro.gfx.traceio import load_trace_auto, save_trace_auto, trace_to_string

from tests.conftest import make_draw, make_world
from tests.test_properties import draw_strategy


def roundtrip(trace):
    buffer = io.BytesIO()
    write_trace_binary(trace, buffer)
    buffer.seek(0)
    return read_trace_binary(buffer)


class TestRoundTrip:
    def test_fixture_trace(self, simple_trace):
        back = roundtrip(simple_trace)
        assert back.name == simple_trace.name
        assert back.frames == simple_trace.frames
        assert back.shaders == simple_trace.shaders
        assert back.textures == simple_trace.textures
        assert back.render_targets == simple_trace.render_targets

    def test_file_roundtrip(self, simple_trace, tmp_path):
        path = tmp_path / "trace.rpb"
        save_trace_auto(simple_trace, path)
        back = load_trace_auto(path)
        assert back.frames == simple_trace.frames

    def test_synth_trace(self):
        from repro.synth.generator import TraceGenerator
        from repro.synth.profiles import GameProfile

        profile = GameProfile.preset("bioshock_infinite_like").scaled(0.04)
        trace = TraceGenerator(profile, seed=3).generate(num_frames=4)
        back = roundtrip(trace)
        assert back.frames == trace.frames
        assert back.render_targets == trace.render_targets

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.lists(draw_strategy, min_size=1, max_size=6),
                    min_size=1, max_size=3))
    def test_random_traces(self, draw_lists):
        trace = make_world(draw_lists)
        back = roundtrip(trace)
        assert back.frames == trace.frames

    def test_depth_only_draw_preserved(self):
        import dataclasses

        draw = dataclasses.replace(
            make_draw(), render_target_ids=(), depth_target_id=1
        )
        trace = make_world([[draw]])
        back = roundtrip(trace)
        rebuilt = back.frames[0].draw_list[0]
        assert rebuilt.render_target_ids == ()
        assert rebuilt.depth_target_id == 1


class TestCompactness:
    def test_smaller_than_json(self):
        trace = make_world([[make_draw() for _ in range(50)] for _ in range(4)])
        json_size = len(trace_to_string(trace).encode())
        buffer = io.BytesIO()
        write_trace_binary(trace, buffer)
        binary_size = buffer.tell()
        assert binary_size < json_size / 3


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace_binary(io.BytesIO(b"NOPE" + b"\x00" * 64))

    def test_truncated_stream(self, simple_trace):
        buffer = io.BytesIO()
        write_trace_binary(simple_trace, buffer)
        data = buffer.getvalue()
        with pytest.raises(TraceFormatError):
            read_trace_binary(io.BytesIO(data[: len(data) // 2]))

    def test_missing_end_marker(self, simple_trace):
        buffer = io.BytesIO()
        write_trace_binary(simple_trace, buffer)
        data = buffer.getvalue()[:-4]
        with pytest.raises(TraceFormatError, match="end marker"):
            read_trace_binary(io.BytesIO(data))

    def test_wrong_section_tag(self, simple_trace):
        buffer = io.BytesIO()
        write_trace_binary(simple_trace, buffer)
        data = bytearray(buffer.getvalue())
        shdr = data.find(b"SHDR")
        data[shdr : shdr + 4] = b"XXXX"
        with pytest.raises(TraceFormatError, match="section tag"):
            read_trace_binary(io.BytesIO(bytes(data)))


def small_binary_world():
    """Two frames, every section non-empty, a depth-only draw and multi-id lists."""
    import dataclasses

    draws = [
        make_draw(shader_id=1, texture_ids=(10, 11)),
        dataclasses.replace(make_draw(shader_id=2), render_target_ids=(), depth_target_id=1),
    ]
    trace = make_world([draws, draws[:1]])
    return dataclasses.replace(trace, buffers={0: BufferDesc(0, 4096, 32)})


def binary(trace):
    buffer = io.BytesIO()
    write_trace_binary(trace, buffer)
    return buffer.getvalue()


def enum_variants():
    """Traces that differ from ``small_binary_world`` in one enum byte each."""
    import dataclasses

    base = small_binary_world()

    def with_first_draw(**changes):
        frame = base.frames[0]
        draws = frame.draw_list
        draws[0] = dataclasses.replace(draws[0], **changes)
        rebuilt = Frame(frame.index, (RenderPass(PassType.FORWARD, tuple(draws)),))
        return dataclasses.replace(base, frames=(rebuilt,) + base.frames[1:])

    state = base.frames[0].draw_list[0].state
    texture = base.textures[10]
    target = base.render_targets[2]
    frame = base.frames[1]
    return {
        "texture format": dataclasses.replace(
            base, textures={**base.textures, 10: dataclasses.replace(texture, format=TextureFormat.BC3)}
        ),
        "render-target format": dataclasses.replace(
            base,
            render_targets={
                **base.render_targets,
                2: dataclasses.replace(target, format=TextureFormat.RGBA8),
            },
        ),
        "pass type": dataclasses.replace(
            base,
            frames=base.frames[:1]
            + (Frame(frame.index, (RenderPass(PassType.POST, frame.passes[0].draws),)),),
        ),
        "topology": with_first_draw(topology=PrimitiveTopology.TRIANGLE_STRIP),
        "depth mode": with_first_draw(state=dataclasses.replace(state, depth=DepthMode.TEST_ONLY)),
        "blend mode": with_first_draw(state=dataclasses.replace(state, blend=BlendMode.ALPHA)),
        "cull mode": with_first_draw(state=dataclasses.replace(state, cull=CullMode.NONE)),
        "draw pass type": with_first_draw(pass_type=PassType.UI),
    }


class TestMalformedFiles:
    def test_every_cut_raises_trace_format_error(self):
        data = binary(small_binary_world())
        for cut in range(len(data)):
            with pytest.raises(TraceFormatError):
                read_trace_binary(io.BytesIO(data[:cut]))

    def test_cut_inside_a_shader_record_names_it(self):
        data = binary(small_binary_world())
        with pytest.raises(TraceFormatError, match="shader 0 at byte"):
            read_trace_binary(io.BytesIO(data[:40]))

    @pytest.mark.parametrize("field", sorted(enum_variants()))
    def test_unknown_enum_byte_raises_trace_format_error(self, field):
        data = binary(small_binary_world())
        variant = binary(enum_variants()[field])
        assert len(variant) == len(data)
        offsets = [i for i, (a, b) in enumerate(zip(data, variant)) if a != b]
        assert len(offsets) == 1, offsets
        corrupted = bytearray(data)
        corrupted[offsets[0]] = 200
        with pytest.raises(TraceFormatError, match="200"):
            read_trace_binary(io.BytesIO(bytes(corrupted)))

    def test_count_beyond_int64_raises_trace_format_error(self):
        data = bytearray(binary(small_binary_world()))
        # FRMS tag and count, frame index, pass count, pass code, empty
        # pass name, draw count; then the row, whose bytes 16..24 hold
        # pixels_rasterized.
        row_start = data.find(b"FRMS") + 8 + 4 + 4 + 1 + 4 + 4
        data[row_start + 16 : row_start + 24] = struct.pack("<Q", 2**64 - 1)
        with pytest.raises(TraceFormatError, match="frame 0"):
            read_trace_binary(io.BytesIO(bytes(data)))
