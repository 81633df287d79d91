"""Tests for the columnar draw storage (DrawTable) and its DrawCall view."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError, ValidationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.drawtable import COLUMNS, DrawTable
from repro.gfx.enums import BlendMode, CullMode, DepthMode, PassType, PrimitiveTopology
from repro.gfx.state import PipelineState, TRANSPARENT_STATE
from repro.gfx.traceio import FORMAT_VERSION, trace_from_string

from tests.conftest import make_draw, make_world


def sample_draws():
    return [
        make_draw(shader_id=1, texture_ids=(10, 11)),
        make_draw(shader_id=2, texture_ids=(), state=TRANSPARENT_STATE),
        dataclasses.replace(
            make_draw(shader_id=3, topology=PrimitiveTopology.TRIANGLE_STRIP),
            render_target_ids=(),
            depth_target_id=1,
            pass_type=PassType.SHADOW,
        ),
        dataclasses.replace(make_draw(shader_id=4), render_target_ids=(0, 2)),
    ]


class TestDrawTable:
    def test_views_round_trip(self):
        draws = sample_draws()
        table = DrawTable.from_draws(draws)
        assert len(table) == len(draws)
        assert table.draws() == draws
        assert [table.draw(i) for i in range(len(draws))] == draws

    def test_columns(self):
        table = DrawTable.from_draws(sample_draws())
        assert table.shader_id.tolist() == [1, 2, 3, 4]
        assert table.depth_target.tolist() == [1, 1, 1, 1]
        assert table.texture_ids.tolist() == [10, 11, 10, 10]
        assert table.texture_offsets.tolist() == [0, 2, 2, 3, 4]
        assert table.render_target_offsets.tolist() == [0, 1, 2, 2, 4]
        assert all(column.dtype in (np.int64, np.uint8) for _, column in table.columns())

    def test_columns_are_read_only(self):
        table = DrawTable.from_draws(sample_draws())
        with pytest.raises(ValueError):
            table.vertex_count[0] = 7

    def test_empty(self):
        table = DrawTable.from_draws([])
        assert len(table) == 0
        assert table.draws() == []
        table.validate()

    def test_take_matches_views(self):
        draws = sample_draws()
        table = DrawTable.from_draws(draws)
        rows = [3, 0, 2]
        assert table.take(rows) == DrawTable.from_draws([draws[i] for i in rows])

    def test_geometry_matches_drawcall(self):
        draws = [
            make_draw(vertex_count=v, topology=t, instance_count=k)
            for v in (1, 2, 3, 7, 300)
            for t in PrimitiveTopology
            for k in (1, 3)
        ]
        verts, prims = DrawTable.from_draws(draws).geometry()
        assert verts.tolist() == [float(d.total_vertices) for d in draws]
        assert prims.tolist() == [float(d.primitive_count) for d in draws]

    def test_bad_offsets_rejected(self):
        columns = dict(DrawTable.from_draws(sample_draws()).columns())
        columns["texture_offsets"] = np.array([0, 3, 2, 3, 4])
        with pytest.raises(ValidationError, match="texture_offsets"):
            DrawTable(**columns)

    def test_validate_names_the_draw(self):
        columns = dict(DrawTable.from_draws(sample_draws()).columns())
        shaded = columns["pixels_shaded"].copy()
        shaded[2] = columns["pixels_rasterized"][2] + 1
        columns["pixels_shaded"] = shaded
        with pytest.raises(ValidationError, match="draw 2: pixels_shaded cannot exceed"):
            DrawTable(**columns).validate()

    def test_unknown_code_rejected(self):
        columns = dict(DrawTable.from_draws(sample_draws()).columns())
        columns["blend"] = np.array([0, 0, 200, 0])
        with pytest.raises(ValidationError, match="draw 2: blend is not a BlendMode code"):
            DrawTable(**columns).validate()

    def test_column_set_is_checked(self):
        columns = dict(DrawTable.from_draws(sample_draws()).columns())
        del columns["cull"]
        with pytest.raises(ValidationError, match="columns"):
            DrawTable(**columns)
        assert len(COLUMNS) == 16


class TestTraceLookup:
    def test_values_follow_the_tables(self):
        trace = make_world([sample_draws()])
        lookup = trace.lookup
        ids = np.array([11, 10, 11])
        assert lookup.texture_bytes(ids).tolist() == [
            trace.textures[i].byte_size for i in ids.tolist()
        ]
        assert lookup.target_bytes_per_pixel(np.array([2, 0])).tolist() == [
            trace.render_targets[2].bytes_per_pixel,
            trace.render_targets[0].bytes_per_pixel,
        ]
        assert lookup.shader_stats(np.array([4])).shape == (1, 10)
        assert trace.lookup is lookup

    def test_unknown_ids_raise(self):
        lookup = make_world([sample_draws()]).lookup
        with pytest.raises(ValidationError, match="unknown texture_id 99"):
            lookup.texture_bytes(np.array([10, 99]))
        with pytest.raises(ValidationError, match="unknown render target_id 7"):
            lookup.target_bytes_per_pixel(np.array([7]))
        with pytest.raises(ValidationError, match="unknown shader_id 0"):
            lookup.shader_stats(np.array([0]))

    def test_sparse_and_empty_id_spaces(self):
        draw = make_draw(texture_ids=(2**40,))
        trace = make_world([[draw]])
        assert trace.lookup.texture_bytes(np.array([2**40])).tolist() == [
            trace.textures[2**40].byte_size
        ]
        empty = dataclasses.replace(trace, shaders={})
        assert empty.lookup.shader_stats(np.array([], dtype=np.int64)).shape == (0, 10)


# -- column validation accepts exactly what DrawCall accepts -----------------

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: Anything JSON can carry in a numeric slot: any int64 (negatives, zero,
#: the extremes), bools and floats.
ANY = st.one_of(
    st.integers(min_value=-2, max_value=3), INT64, st.booleans(), st.floats(allow_nan=False)
)
SMALL = st.integers(min_value=0, max_value=9)
COUNTS = ("vertex_count", "instance_count", "vertex_stride_bytes")
SCALARS = ("shader_id", "pixels_rasterized", "pixels_shaded", "depth_target_id") + COUNTS
ID_LISTS = ("texture_ids", "render_target_ids")


@st.composite
def draw_fields(draw) -> dict:
    """DrawCall keyword arguments: a plausible draw with up to two fields
    replaced by arbitrary values.  Plausible draws still fail on
    ``pixels_shaded > pixels_rasterized`` or on binding no target."""
    fields = {
        "shader_id": draw(SMALL),
        "state": draw(
            st.builds(
                PipelineState,
                depth=st.sampled_from(list(DepthMode)),
                blend=st.sampled_from(list(BlendMode)),
                cull=st.sampled_from(list(CullMode)),
            )
        ),
        "topology": draw(st.sampled_from(list(PrimitiveTopology))),
        "pixels_rasterized": draw(SMALL),
        "pixels_shaded": draw(SMALL),
        "texture_ids": tuple(draw(st.lists(SMALL, max_size=3))),
        "render_target_ids": tuple(draw(st.lists(SMALL, max_size=2))),
        "depth_target_id": draw(st.one_of(st.none(), SMALL)),
        "pass_type": draw(st.sampled_from(list(PassType))),
        **{name: draw(st.integers(min_value=1, max_value=9)) for name in COUNTS},
    }
    for name in draw(st.lists(st.sampled_from(SCALARS + ID_LISTS), max_size=2, unique=True)):
        if name in ID_LISTS:
            fields[name] = tuple(draw(st.lists(ANY, min_size=1, max_size=3)))
        else:
            fields[name] = draw(ANY)
    return fields


def one_draw_trace(fields: dict) -> str:
    """A JSON-lines trace whose only frame holds one draw with ``fields``."""
    draw = {
        "shader": fields["shader_id"],
        "state": [
            fields["state"].depth.value,
            fields["state"].blend.value,
            fields["state"].cull.value,
        ],
        "topo": fields["topology"].value,
        "verts": fields["vertex_count"],
        "inst": fields["instance_count"],
        "rast": fields["pixels_rasterized"],
        "shaded": fields["pixels_shaded"],
        "tex": list(fields["texture_ids"]),
        "rts": list(fields["render_target_ids"]),
        "depth_rt": fields["depth_target_id"],
        "stride": fields["vertex_stride_bytes"],
        "pass": fields["pass_type"].value,
    }
    header = {"type": "header", "version": FORMAT_VERSION, "name": "one", "metadata": {}}
    frame = {
        "type": "frame",
        "index": 0,
        "passes": [{"pass_type": "forward", "name": "p", "draws": [draw]}],
    }
    return json.dumps(header) + "\n" + json.dumps(frame) + "\n"


class TestValidationParity:
    @settings(max_examples=400, deadline=None)
    @given(draw_fields())
    def test_loads_iff_drawcall_constructs(self, fields):
        try:
            expected = DrawCall(**fields)
        except ValidationError:
            expected = None
        text = one_draw_trace(fields)
        if expected is None:
            with pytest.raises(TraceFormatError, match="line 2"):
                trace_from_string(text)
        else:
            trace = trace_from_string(text)
            assert trace.frames[0].draw_list == [expected]
            assert trace.frames[0].table == DrawTable.from_draws([expected])
