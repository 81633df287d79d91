"""Referential-integrity validation for traces.

Every draw table already holds each draw's local invariants (non-negative
counts, shaded <= rasterized, ...): the loaders and the synthetic
generator run ``DrawTable.validate`` on each table they build, and
``DrawCall`` checks its own fields.  This module checks the
*cross-object* invariants a trace must satisfy before simulation: every
id a draw references must resolve in the trace's tables, targets must
have the format their binding implies, and a draw cannot rasterize far
more pixels than its targets hold.

Each frame's columns are screened at once; only a frame that fails the
screen is walked draw by draw, over its flagged rows, to word the
problems.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.gfx.drawtable import DECODE, DrawTable
from repro.gfx.enums import DepthMode
from repro.gfx.trace import Trace

#: Overdraw within a draw (a draw covering the same pixel multiple
#: times) is real, so the pixel bound is deliberately loose: this many
#: times the largest bound target's area.
_PIXEL_BOUND_FACTOR = 16
_INT64_MAX = int(np.iinfo(np.int64).max)


def validate_trace(trace: Trace, max_errors: int = 20) -> None:
    """Raise :class:`TraceError` listing all integrity violations found.

    Collects up to ``max_errors`` problems before raising so a broken
    generator is diagnosed in one pass rather than one error at a time.
    Problems are listed frame by frame, draw by draw, each draw's in a
    fixed order.
    """
    problems = list(islice(_problems(trace), max(max_errors, 0)))
    if problems:
        shown = "\n  ".join(problems)
        more = "" if len(problems) < max_errors else "\n  ... (truncated)"
        raise TraceError(f"trace {trace.name!r} failed validation:\n  {shown}{more}")


def _problems(trace: Trace) -> Iterator[str]:
    """Every problem, located as ``frame[f].pass[p].draw[d]``."""
    screen = _Screen(trace)
    for frame_pos, frame in enumerate(trace.frames):
        table = frame.table
        stops = [span.stop for span in frame.spans]
        for row in np.flatnonzero(screen.flagged(table)).tolist():
            pass_pos = bisect_right(stops, row)
            draw_pos = row - frame.spans[pass_pos].start
            where = f"frame[{frame_pos}].pass[{pass_pos}].draw[{draw_pos}]"
            for problem in _draw_problems(trace, table, row):
                yield f"{where}: {problem}"


class _Screen:
    """The trace's id tables as sorted arrays, to screen a frame's columns."""

    def __init__(self, trace: Trace) -> None:
        self.shader_ids = np.array(sorted(trace.shaders), dtype=np.int64)
        self.texture_ids = np.array(sorted(trace.textures), dtype=np.int64)
        targets = sorted(trace.render_targets.items())
        self.target_ids = np.array([rid for rid, _ in targets], dtype=np.int64)
        # One value per target, then one for an unknown id: the pixel
        # bound (0 when unknown; clipped to int64, where the clip cannot
        # change a comparison with an int64 pixel count) and the format.
        self.target_bound = np.array(
            [min(_PIXEL_BOUND_FACTOR * rt.pixel_count, _INT64_MAX) for _, rt in targets]
            + [0],
            dtype=np.int64,
        )
        self.target_is_depth = np.array(
            [rt.format.is_depth for _, rt in targets] + [False], dtype=bool
        )

    def _target_rows(self, ids: np.ndarray) -> np.ndarray:
        """Each id's row in the target arrays (the unknown row if absent)."""
        keys = self.target_ids
        rows = np.searchsorted(keys, ids)
        hit = rows < len(keys)
        hit[hit] = keys[rows[hit]] == ids[hit]
        return np.where(hit, rows, len(keys))

    def flagged(self, table: DrawTable) -> np.ndarray:
        """Per draw: True when :func:`_draw_problems` finds anything."""
        bad = ~np.isin(table.shader_id, self.shader_ids)
        bad |= _any_per_row(
            ~np.isin(table.texture_ids, self.texture_ids), table.texture_offsets
        )
        color = self._target_rows(table.render_target_ids)
        color_bound = self.target_bound[color]
        bad |= _any_per_row(
            (color_bound == 0) | self.target_is_depth[color], table.render_target_offsets
        )
        has_depth = table.depth_target >= 0
        depth = self._target_rows(table.depth_target)
        depth_bound = np.where(has_depth, self.target_bound[depth], 0)
        bad |= has_depth & ((depth_bound == 0) | ~self.target_is_depth[depth])
        bad |= table.state_flags()[0] & ~has_depth
        bound = np.maximum(_max_per_row(color_bound, table.render_target_offsets), depth_bound)
        bad |= (bound > 0) & (table.pixels_rasterized > bound)
        return bad


def _any_per_row(slot_flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per row: whether any of its slots in a flat id list is flagged."""
    rows = np.searchsorted(offsets, np.flatnonzero(slot_flags), side="right") - 1
    out = np.zeros(len(offsets) - 1, dtype=bool)
    out[rows] = True
    return out


def _max_per_row(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per row: the largest of its slots' values in a flat list, 0 if none."""
    out = np.zeros(len(offsets) - 1, dtype=values.dtype)
    nonempty = np.diff(offsets) > 0
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty])
    return out


def _draw_problems(trace: Trace, table: DrawTable, row: int) -> Iterator[str]:
    """The integrity problems of draw ``row``, in a fixed order."""
    shader_id = int(table.shader_id[row])
    texture_ids = table.texture_ids[
        table.texture_offsets[row] : table.texture_offsets[row + 1]
    ].tolist()
    target_ids = table.render_target_ids[
        table.render_target_offsets[row] : table.render_target_offsets[row + 1]
    ].tolist()
    depth_id = int(table.depth_target[row])
    depth_target_id = None if depth_id < 0 else depth_id
    targets = trace.render_targets

    if shader_id not in trace.shaders:
        yield f"unknown shader_id {shader_id}"
    for tid in texture_ids:
        if tid not in trace.textures:
            yield f"unknown texture_id {tid}"
    for rid in target_ids:
        if rid not in targets:
            yield f"unknown render target_id {rid}"
    if depth_target_id is not None:
        depth_rt = targets.get(depth_target_id)
        if depth_rt is None:
            yield f"unknown depth target_id {depth_target_id}"
        elif not depth_rt.format.is_depth:
            yield (
                f"depth target {depth_target_id} has "
                f"non-depth format {depth_rt.format.value}"
            )
    if DECODE[DepthMode][table.depth[row]].reads_depth and depth_target_id is None:
        yield "depth test enabled but no depth target bound"
    for rid in target_ids:
        rt = targets.get(rid)
        if rt is not None and rt.format.is_depth:
            yield f"color target {rid} has depth format {rt.format.value}"
    areas = [targets[rid].pixel_count for rid in target_ids if rid in targets]
    if depth_target_id in targets:
        areas.append(targets[depth_target_id].pixel_count)
    pixels = int(table.pixels_rasterized[row])
    if areas and pixels > _PIXEL_BOUND_FACTOR * max(areas):
        yield (
            f"pixels_rasterized={pixels} "
            f"exceeds {_PIXEL_BOUND_FACTOR}x the bound render-target area"
        )
