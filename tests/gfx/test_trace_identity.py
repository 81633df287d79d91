"""One trace, three construction routes, one identity.

A synth-built trace and its ``.jsonl``- and ``.rpb``-loaded copies must
compare equal, share a content digest, and survive a pickle round trip
(the engine pickles the trace into worker ``initargs`` under the spawn
and forkserver start methods).  The digest must move with every column
value, pass name or type, frame index and resource entry.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.gfx.drawtable import CODE_COLUMNS, DrawTable
from repro.gfx.enums import PassType, TextureFormat
from repro.gfx.frame import Frame, PassSpan, RenderPass
from repro.gfx.resources import BufferDesc
from repro.gfx.shader import make_shader
from repro.gfx.traceio import load_trace_auto, save_trace_auto
from repro.runtime.keys import trace_digest
from repro.synth.generator import generate_trace

from tests.conftest import make_draw, make_world


@pytest.fixture(scope="module")
def routes(tmp_path_factory):
    """(synth-built, .jsonl-loaded, .rpb-loaded) copies of one trace."""
    trace = generate_trace("bioshock1_like", num_frames=6, seed=5, scale=0.05)
    directory = tmp_path_factory.mktemp("routes")
    save_trace_auto(trace, directory / "trace.jsonl")
    save_trace_auto(trace, directory / "trace.rpb")
    return (
        trace,
        load_trace_auto(directory / "trace.jsonl"),
        load_trace_auto(directory / "trace.rpb"),
    )


class TestThreeRoutes:
    def test_equal(self, routes):
        synth, from_json, from_rpb = routes
        assert synth == from_json
        assert synth == from_rpb

    def test_one_digest(self, routes):
        digests = {trace_digest(trace) for trace in routes}
        assert len(digests) == 1

    def test_same_draw_views(self, routes):
        synth, from_json, from_rpb = routes
        for frames in zip(synth.frames, from_json.frames, from_rpb.frames):
            assert frames[0].passes == frames[1].passes == frames[2].passes

    def test_pickle_round_trip(self, routes):
        for trace in routes:
            back = pickle.loads(pickle.dumps(trace))
            assert back == trace
            assert trace_digest(back) == trace_digest(trace)
            assert back.frames[0].draw_list == trace.frames[0].draw_list
            assert back.frames[0].metadata == trace.frames[0].metadata

    def test_frame_pickle_drops_nothing_it_compares(self, routes):
        frame = routes[0].frames[1]
        back = pickle.loads(pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))
        assert back == frame
        assert back.spans == frame.spans
        assert not back.table.vertex_count.flags.writeable

    def test_frames_are_not_hashable(self, routes):
        with pytest.raises(TypeError):
            hash(routes[1].frames[0])


def digest_world():
    """A small trace that has every kind of resource entry."""
    draws = [
        make_draw(shader_id=1, texture_ids=(10, 11)),
        dataclasses.replace(make_draw(shader_id=2, texture_ids=(12,)), render_target_ids=(0, 2)),
        make_draw(shader_id=1, texture_ids=()),
    ]
    trace = make_world([draws, draws[::-1]])
    return dataclasses.replace(trace, buffers={0: BufferDesc(0, 4096, 32)})


def with_frame(trace, position, frame):
    frames = list(trace.frames)
    frames[position] = frame
    return dataclasses.replace(trace, frames=tuple(frames))


def with_column(frame, name, change):
    columns = {key: column.copy() for key, column in frame.table.columns()}
    change(columns[name])
    return Frame.from_table(frame.index, DrawTable(**columns), frame.spans)


def column_changes():
    changes = {
        name: (lambda column: column.__setitem__(0, column[0] + 1))
        for name in ("shader_id", "vertex_count", "instance_count", "pixels_rasterized",
                     "vertex_stride", "texture_ids", "render_target_ids")
    }
    changes["pixels_shaded"] = lambda column: column.__setitem__(0, column[0] - 1)
    changes["depth_target"] = lambda column: column.__setitem__(0, -1)
    for name, enum_type in CODE_COLUMNS:
        changes[name] = lambda column, n=len(enum_type): column.__setitem__(
            0, (column[0] + 1) % n
        )
    # Move the first draw's last id to the second draw.
    changes["texture_offsets"] = lambda column: column.__setitem__(1, column[1] - 1)
    changes["render_target_offsets"] = lambda column: column.__setitem__(2, column[2] - 1)
    return changes


class TestDigestSensitivity:
    def test_every_column_value_counts(self):
        trace = digest_world()
        base = trace_digest(trace)
        changes = column_changes()
        assert set(changes) == {name for name, _ in trace.frames[0].table.columns()}
        for name, change in changes.items():
            changed = with_frame(trace, 0, with_column(trace.frames[0], name, change))
            assert changed.frames[0] != trace.frames[0], name
            assert trace_digest(changed) != base, name

    def test_pass_structure_and_index_count(self):
        trace = digest_world()
        base = trace_digest(trace)
        frame = trace.frames[1]
        span = frame.spans[0]
        variants = {
            "pass name": (span._replace(name="other"),),
            "pass type": (span._replace(pass_type=PassType.POST),),
            "pass split": (span._replace(stop=1), PassSpan(span.pass_type, span.name, 1, 3)),
        }
        for label, spans in variants.items():
            changed = with_frame(trace, 1, Frame.from_table(frame.index, frame.table, spans))
            assert trace_digest(changed) != base, label
        reindexed = with_frame(trace, 1, Frame.from_table(7, frame.table, frame.spans))
        assert trace_digest(reindexed) != base

    def test_every_resource_entry_counts(self):
        trace = digest_world()
        base = trace_digest(trace)
        shader = trace.shaders[2]
        variants = [
            dataclasses.replace(trace, name="renamed"),
            dataclasses.replace(trace, shaders={**trace.shaders, 2: make_shader(2, "s2", vs_alu=99, ps_alu=1)}),
            dataclasses.replace(trace, shaders={**trace.shaders, 2: dataclasses.replace(shader, name="other")}),
            dataclasses.replace(trace, textures={
                **trace.textures, 10: dataclasses.replace(trace.textures[10], format=TextureFormat.BC3)
            }),
            dataclasses.replace(trace, textures={
                **trace.textures, 11: dataclasses.replace(trace.textures[11], mip_levels=4)
            }),
            dataclasses.replace(trace, render_targets={
                **trace.render_targets,
                2: dataclasses.replace(trace.render_targets[2], samples=4),
            }),
            dataclasses.replace(trace, buffers={0: BufferDesc(0, 4096, 16)}),
            dataclasses.replace(trace, buffers={}),
        ]
        digests = {trace_digest(variant) for variant in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_metadata_does_not_count(self):
        trace = digest_world()
        tagged = dataclasses.replace(trace, metadata={"note": "x"})
        tagged.frames[0].metadata["note"] = "y"
        assert trace_digest(tagged) == trace_digest(digest_world())


class TestTake:
    def test_take_equals_frame_of_views(self, routes):
        for frame in routes[1].frames[:3]:
            rows = np.sort(np.unique(np.arange(frame.num_draws)[::3]))
            views = frame.draw_list
            picked = tuple(views[i] for i in rows)
            expected = Frame(
                index=frame.index,
                passes=(RenderPass(pass_type=picked[0].pass_type, draws=picked),),
            )
            assert frame.take(rows) == expected
            assert frame.take(rows).spans == (PassSpan(picked[0].pass_type, "", 0, len(rows)),)
