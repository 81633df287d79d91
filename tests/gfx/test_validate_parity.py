"""``validate_trace`` screens columns; a per-draw loop is its reference.

The loop below is the draw-at-a-time form of the validation, kept here
as the reference.  A small generated trace is corrupted in every way the
validation looks for (dangling shader, texture, target and depth ids,
targets of the wrong format, a depth test with no depth target, pixel
counts over the bound, and whole resources dropped so that the problems
run past ``max_errors``), and the column form must raise exactly the
reference's message, or pass exactly when the reference finds nothing.
"""

from functools import lru_cache
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.gfx.drawtable import ENCODE, DrawTable
from repro.gfx.enums import DepthMode
from repro.gfx.frame import Frame
from repro.gfx.trace import Trace
from repro.gfx.validate import validate_trace
from repro.synth.generator import TraceGenerator
from repro.synth.materials import RT_BACKBUFFER, RT_DEPTH
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile


def reference_validate(trace: Trace, max_errors: int = 20) -> None:
    """The per-draw validation loop over ``DrawCall`` views."""
    problems: List[str] = []

    def note(problem: str) -> None:
        if len(problems) < max_errors:
            problems.append(problem)

    for frame_pos, frame in enumerate(trace.frames):
        for pass_pos, render_pass in enumerate(frame.passes):
            for draw_pos, draw in enumerate(render_pass.draws):
                where = f"frame[{frame_pos}].pass[{pass_pos}].draw[{draw_pos}]"
                if draw.shader_id not in trace.shaders:
                    note(f"{where}: unknown shader_id {draw.shader_id}")
                for tid in draw.texture_ids:
                    if tid not in trace.textures:
                        note(f"{where}: unknown texture_id {tid}")
                for rid in draw.render_target_ids:
                    if rid not in trace.render_targets:
                        note(f"{where}: unknown render target_id {rid}")
                if (
                    draw.depth_target_id is not None
                    and draw.depth_target_id not in trace.render_targets
                ):
                    note(f"{where}: unknown depth target_id {draw.depth_target_id}")
                if draw.depth_target_id is not None:
                    depth_rt = trace.render_targets.get(draw.depth_target_id)
                    if depth_rt is not None and not depth_rt.format.is_depth:
                        note(
                            f"{where}: depth target {draw.depth_target_id} has "
                            f"non-depth format {depth_rt.format.value}"
                        )
                if draw.state.depth.reads_depth and draw.depth_target_id is None:
                    note(f"{where}: depth test enabled but no depth target bound")
                for rid in draw.render_target_ids:
                    rt = trace.render_targets.get(rid)
                    if rt is not None and rt.format.is_depth:
                        note(
                            f"{where}: color target {rid} has depth format "
                            f"{rt.format.value}"
                        )
                if _pixel_bound_exceeded(trace, draw):
                    note(
                        f"{where}: pixels_rasterized={draw.pixels_rasterized} "
                        "exceeds 16x the bound render-target area"
                    )

    if problems:
        shown = "\n  ".join(problems)
        more = "" if len(problems) < max_errors else "\n  ... (truncated)"
        raise TraceError(f"trace {trace.name!r} failed validation:\n  {shown}{more}")


def _pixel_bound_exceeded(trace: Trace, draw) -> bool:
    areas = [
        trace.render_targets[rid].pixel_count
        for rid in draw.render_target_ids
        if rid in trace.render_targets
    ]
    if draw.depth_target_id is not None and draw.depth_target_id in trace.render_targets:
        areas.append(trace.render_targets[draw.depth_target_id].pixel_count)
    if not areas:
        return False
    return draw.pixels_rasterized > 16 * max(areas)


#: One frame of each kind: a menu frame has no scene passes, a combat
#: frame the most transparent draws.
KINDS = (SegmentKind.MENU, SegmentKind.EXPLORE, SegmentKind.COMBAT, SegmentKind.CUTSCENE)
SCRIPT = PhaseScript(segments=tuple(Segment(kind, 0, 1) for kind in KINDS))


@lru_cache(maxsize=None)
def base_trace(game: str) -> Trace:
    profile = GameProfile.preset(game).scaled(0.03)
    return TraceGenerator(profile, seed=1).generate(script=SCRIPT)


#: Corruptions of one draw, each applied at a (frame, row, slot) position.
DRAW_CORRUPTIONS = (
    "dangling_shader",
    "dangling_texture",
    "dangling_target",
    "dangling_depth",
    "depth_format_color_target",
    "color_format_depth_target",
    "drop_depth_target",
    "test_depth",
    "pixels_over_bound",
)
#: Resource-table corruptions: drop one entry of a table.
TABLE_CORRUPTIONS = ("drop_shader", "drop_texture", "drop_target")


def _outcome(validate, trace: Trace, max_errors: int):
    try:
        validate(trace, max_errors)
    except TraceError as exc:
        return str(exc)
    return None


def _corrupt_draw(columns: dict, kind: str, row: int, slot: int, trace: Trace) -> None:
    """Apply one corruption to the writable ``columns`` of one frame."""
    dangling = 10_000 + slot
    textures = slice(columns["texture_offsets"][row], columns["texture_offsets"][row + 1])
    targets = slice(
        columns["render_target_offsets"][row], columns["render_target_offsets"][row + 1]
    )
    if kind == "dangling_shader":
        columns["shader_id"][row] = dangling
    elif kind == "dangling_texture" and textures.stop > textures.start:
        ids = columns["texture_ids"]
        ids[textures.start + slot % (textures.stop - textures.start)] = dangling
    elif kind == "dangling_target" and targets.stop > targets.start:
        ids = columns["render_target_ids"]
        ids[targets.start + slot % (targets.stop - targets.start)] = dangling
    elif kind == "dangling_depth":
        columns["depth_target"][row] = dangling
    elif kind == "depth_format_color_target" and targets.stop > targets.start:
        ids = columns["render_target_ids"]
        ids[targets.start + slot % (targets.stop - targets.start)] = RT_DEPTH
    elif kind == "color_format_depth_target":
        columns["depth_target"][row] = RT_BACKBUFFER
    elif kind == "drop_depth_target" and targets.stop > targets.start:
        columns["depth_target"][row] = -1
    elif kind == "test_depth":
        columns["depth"][row] = ENCODE[DepthMode][DepthMode.TEST_WRITE]
    elif kind == "pixels_over_bound":
        largest = max(rt.pixel_count for rt in trace.render_targets.values())
        columns["pixels_rasterized"][row] = 16 * largest + 1 + slot


def corrupted(trace: Trace, draw_edits, table_edits) -> Trace:
    frames = list(trace.frames)
    for kind, frame_pos, row_pick, slot in draw_edits:
        frame_pos %= len(frames)
        frame = frames[frame_pos]
        columns = {name: column.copy() for name, column in frame.table.columns()}
        _corrupt_draw(columns, kind, row_pick % len(frame.table), slot, trace)
        table = DrawTable(**columns)
        table.validate()
        frames[frame_pos] = Frame.from_table(frame.index, table, frame.spans, frame.metadata)
    tables = {
        "drop_shader": dict(trace.shaders),
        "drop_texture": dict(trace.textures),
        "drop_target": dict(trace.render_targets),
    }
    for kind, pick in table_edits:
        entries = tables[kind]
        if entries:
            del entries[sorted(entries)[pick % len(entries)]]
    return Trace(
        name=trace.name,
        frames=tuple(frames),
        shaders=tables["drop_shader"],
        textures=tables["drop_texture"],
        render_targets=tables["drop_target"],
    )


INDEX = st.integers(min_value=0, max_value=10_000)


class TestValidateParity:
    @pytest.mark.parametrize("game", ["bioshock1_like", "bioshock_infinite_like"])
    def test_generated_trace_passes_both(self, game):
        trace = base_trace(game)
        assert _outcome(validate_trace, trace, 20) is None
        assert _outcome(reference_validate, trace, 20) is None

    def test_every_corruption_at_once(self):
        trace = base_trace("bioshock_infinite_like")
        edits = [(kind, 2, 7 * k, k) for k, kind in enumerate(DRAW_CORRUPTIONS)]
        bad = corrupted(trace, edits, [])
        expected = _outcome(reference_validate, bad, 100)
        assert expected is not None and "truncated" not in expected
        assert _outcome(validate_trace, bad, 100) == expected

    @pytest.mark.parametrize("max_errors", [0, 1, 5, 20])
    def test_dropped_resources_past_max_errors(self, max_errors):
        trace = base_trace("bioshock1_like")
        bad = corrupted(trace, [], [("drop_texture", 3), ("drop_target", 0)])
        expected = _outcome(reference_validate, bad, max_errors)
        assert (expected is None) == (max_errors == 0)
        assert _outcome(validate_trace, bad, max_errors) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        game=st.sampled_from(["bioshock1_like", "bioshock_infinite_like"]),
        draw_edits=st.lists(
            st.tuples(st.sampled_from(DRAW_CORRUPTIONS), INDEX, INDEX, INDEX), max_size=6
        ),
        table_edits=st.lists(st.tuples(st.sampled_from(TABLE_CORRUPTIONS), INDEX), max_size=2),
        max_errors=st.sampled_from([1, 2, 5, 20]),
    )
    def test_column_form_matches_reference(self, game, draw_edits, table_edits, max_errors):
        bad = corrupted(base_trace(game), draw_edits, table_edits)
        assert _outcome(validate_trace, bad, max_errors) == _outcome(
            reference_validate, bad, max_errors
        )
