"""Micro-architecture-independent draw-call characteristics.

These are the clustering features of the paper's first contribution.
Every entry is observable from the API stream alone — geometry counts,
static shader instruction mix, texture demands, render-target traffic,
fixed-function state — and none depends on any GPU's cache sizes, core
counts, or clocks.  Count-like features are log-compressed so a 10x and
a 11x-vertex draw are near, while a 10x and a 10000x draw are far.

Deliberately absent (they are micro-architecture *dependent*): register
pressure / occupancy, cache warmth, position in the frame, and any
simulated cost.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.drawtable import DrawTable
from repro.gfx.frame import Frame
from repro.gfx.trace import SHADER_STAT_COLUMNS, Trace
from repro.simgpu import _kernels

FEATURE_NAMES = (
    "log_vertices",
    "log_primitives",
    "log_pixels_rasterized",
    "log_pixels_shaded",
    "vs_alu_ops",
    "vs_tex_ops",
    "ps_alu_ops",
    "ps_tex_ops",
    "interpolants",
    "log_texture_footprint",
    "num_textures",
    "rt_bytes_per_pixel",
    "num_render_targets",
    "log_vertex_stride",
    "log_instances",
    "depth_reads",
    "depth_writes",
    "blend_reads_dest",
    "cull_disabled",
)

NUM_FEATURES = len(FEATURE_NAMES)


#: Columns of :data:`repro.gfx.trace.SHADER_STAT_COLUMNS` that are
#: features 4..8, in feature order.
_SHADER_FEATURES = [
    SHADER_STAT_COLUMNS.index(name)
    for name in ("vs_alu_ops", "vs_tex_ops", "ps_alu_ops", "ps_tex_ops", "ps_interpolants")
]


class FeatureExtractor:
    """Extracts feature vectors/matrices for the draws of one trace.

    Matrix extraction reads a frame's :class:`~repro.gfx.drawtable.DrawTable`
    columns: counts are log-compressed a column at a time, shader,
    texture and render-target values come from the trace's column
    lookups (:attr:`Trace.lookup`), and per-draw texture/render-target
    totals are segment sums.  :meth:`extract` stays as the one-draw
    reference; :meth:`table_matrix` produces bit-identical rows.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._footprint_cache: Dict[tuple, float] = {}
        self._rt_bpp_cache: Dict[tuple, float] = {}

    def extract(self, draw: DrawCall) -> np.ndarray:
        """The feature vector of one draw (length ``NUM_FEATURES``).

        Uses ``np.log1p`` (not ``math.log1p``) so scalar extraction is
        bit-identical to the vectorized :meth:`table_matrix` columns —
        the two can differ by 1 ULP on some inputs.
        """
        shader = self.trace.shader(draw.shader_id)
        row = np.empty(NUM_FEATURES)
        row[0] = np.log1p(draw.total_vertices)
        row[1] = np.log1p(draw.primitive_count)
        row[2] = np.log1p(draw.pixels_rasterized)
        row[3] = np.log1p(draw.pixels_shaded)
        row[4:9] = (
            shader.vertex.alu_ops,
            shader.vertex.tex_ops,
            shader.pixel.alu_ops,
            shader.pixel.tex_ops,
            shader.pixel.interpolants,
        )
        row[9] = np.log1p(self._footprint(draw.texture_ids))
        row[10] = len(draw.texture_ids)
        row[11] = self._rt_bytes_per_pixel(draw.render_target_ids)
        row[12] = len(draw.render_target_ids)
        row[13] = np.log1p(draw.vertex_stride_bytes)
        row[14] = np.log1p(draw.instance_count)
        row[15] = 1.0 if draw.state.depth.reads_depth else 0.0
        row[16] = 1.0 if draw.state.depth.writes_depth else 0.0
        row[17] = 1.0 if draw.state.blend.reads_destination else 0.0
        row[18] = 1.0 if draw.state.cull.value == "none" else 0.0
        return row

    def frame_matrix(self, frame: Frame) -> np.ndarray:
        """Feature matrix of a frame: (num_draws, NUM_FEATURES)."""
        if not frame.num_draws:
            raise ValidationError(f"frame {frame.index} has no draws")
        return self.table_matrix(frame.table)

    def draws_matrix(self, draws: Sequence[DrawCall]) -> np.ndarray:
        """Feature matrix for an arbitrary draw sequence (via its columns)."""
        return self.table_matrix(DrawTable.from_draws(draws))

    def table_matrix(self, table: DrawTable) -> np.ndarray:
        """Feature matrix of a draw table, one column at a time.

        Row ``i`` equals ``extract(table.draw(i))`` exactly: the counts
        convert to float64 once, like the scalar path, and the
        texture/render-target totals are sums of exact integers and
        dyadic bytes-per-pixel values, so their order cannot change them.
        """
        lookup = self.trace.lookup
        matrix = np.empty((len(table), NUM_FEATURES))
        verts, prims = table.geometry()
        matrix[:, 0] = np.log1p(verts)
        matrix[:, 1] = np.log1p(prims)
        matrix[:, 2] = np.log1p(table.pixels_rasterized.astype(np.float64))
        matrix[:, 3] = np.log1p(table.pixels_shaded.astype(np.float64))
        matrix[:, 4:9] = lookup.shader_stats(table.shader_id)[:, _SHADER_FEATURES]
        footprint = _kernels.segment_sums_i64(
            lookup.texture_bytes(table.texture_ids), table.texture_offsets
        )
        matrix[:, 9] = np.log1p(footprint.astype(np.float64))
        matrix[:, 10] = np.diff(table.texture_offsets)
        matrix[:, 11] = _kernels.segment_sums(
            lookup.target_bytes_per_pixel(table.render_target_ids),
            table.render_target_offsets,
        )
        matrix[:, 12] = np.diff(table.render_target_offsets)
        matrix[:, 13] = np.log1p(table.vertex_stride.astype(np.float64))
        matrix[:, 14] = np.log1p(table.instance_count.astype(np.float64))
        matrix[:, 15:19] = np.column_stack(table.state_flags())
        return matrix

    def trace_matrices(self) -> List[np.ndarray]:
        """One feature matrix per frame, for the whole trace."""
        return [self.frame_matrix(frame) for frame in self.trace.frames]

    # -- cached lookups (the one-draw reference path) -------------------------

    def _footprint(self, texture_ids: tuple) -> float:
        cached = self._footprint_cache.get(texture_ids)
        if cached is None:
            cached = float(
                sum(self.trace.texture(tid).byte_size for tid in texture_ids)
            )
            self._footprint_cache[texture_ids] = cached
        return cached

    def _rt_bytes_per_pixel(self, target_ids: tuple) -> float:
        cached = self._rt_bpp_cache.get(target_ids)
        if cached is None:
            cached = float(
                sum(
                    self.trace.render_target(rid).bytes_per_pixel
                    for rid in target_ids
                )
            )
            self._rt_bpp_cache[target_ids] = cached
        return cached
