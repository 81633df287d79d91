"""The trace: a complete captured workload.

A :class:`Trace` bundles the frames of a workload with the shader and
resource tables the draws reference.  It is the input to the performance
model, the feature extractor, and the subsetting pipeline, and the output
of the synthetic generator.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.drawtable import ENCODE
from repro.gfx.enums import PassType, TextureFormat
from repro.gfx.frame import Frame
from repro.gfx.resources import BufferDesc, RenderTargetDesc, TextureDesc
from repro.gfx.shader import ShaderProgram, ShaderStats
from repro.util.validation import check_type

#: Columns of :attr:`TraceLookup.shader_stats`: every ``ShaderStats``
#: field of the vertex stage, then of the pixel stage.
SHADER_STAT_COLUMNS: Tuple[str, ...] = tuple(
    f"{stage}_{name}"
    for stage in ("vs", "ps")
    for name in ("alu_ops", "tex_ops", "interpolants", "registers", "branch_ops")
)


def _stats_row(stats: ShaderStats) -> Tuple[int, ...]:
    return (
        stats.alu_ops,
        stats.tex_ops,
        stats.interpolants,
        stats.registers,
        stats.branch_ops,
    )


class IdLookup:
    """An id -> value table applied to a whole id column at once.

    Ids are matched against the sorted keys by binary search, so any id
    space works, sparse or dense, and an unknown id raises the same
    ``unknown <kind> <id>`` error as the trace's one-id accessors.
    """

    def __init__(
        self, kind: str, table: Mapping[int, object], dtype: type, shape: Tuple[int, ...] = ()
    ) -> None:
        """``shape`` is the shape of one value (rows of an empty table too)."""
        self.kind = kind
        ids = sorted(table)
        self.keys = np.array(ids, dtype=np.int64)
        self.values = np.array([table[i] for i in ids], dtype=dtype).reshape(
            (len(ids),) + shape
        )

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        """``values[i]`` for every id ``i`` of ``ids``, in order."""
        ids = np.asarray(ids, dtype=np.int64)
        if not len(self.keys):
            if len(ids):
                raise ValidationError(f"unknown {self.kind} {int(ids[0])}")
            return self.values[:0]
        pos = np.minimum(np.searchsorted(self.keys, ids), len(self.keys) - 1)
        found = self.keys[pos] == ids
        if not found.all():
            raise ValidationError(f"unknown {self.kind} {int(ids[~found][0])}")
        return self.values[pos]


@dataclass(frozen=True)
class TraceLookup:
    """The per-trace resource tables the column consumers read.

    ``texture_bytes`` maps a texture id to its ``byte_size``,
    ``target_bytes_per_pixel`` a render-target id to its
    ``bytes_per_pixel`` and ``shader_stats`` a shader id to its float64
    row of :data:`SHADER_STAT_COLUMNS`.  Built once per trace
    (:attr:`Trace.lookup`): ``byte_size`` and ``bytes_per_pixel`` are
    computed properties.
    """

    texture_bytes: IdLookup
    target_bytes_per_pixel: IdLookup
    shader_stats: IdLookup


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of a trace (used in reports and sanity checks)."""

    num_frames: int
    num_draws: int
    num_shaders: int
    num_textures: int
    num_render_targets: int
    draws_per_frame_mean: float
    draws_per_pass_type: Dict[str, int]

    def as_dict(self) -> dict:
        return {
            "frames": self.num_frames,
            "draws": self.num_draws,
            "shaders": self.num_shaders,
            "textures": self.num_textures,
            "render_targets": self.num_render_targets,
            "draws_per_frame_mean": self.draws_per_frame_mean,
            "draws_per_pass_type": dict(self.draws_per_pass_type),
        }


@dataclass(frozen=True)
class Trace:
    """A captured (or synthesized) 3D workload."""

    name: str
    frames: Tuple[Frame, ...]
    shaders: Dict[int, ShaderProgram]
    textures: Dict[int, TextureDesc] = field(default_factory=dict)
    render_targets: Dict[int, RenderTargetDesc] = field(default_factory=dict)
    buffers: Dict[int, BufferDesc] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        check_type("Trace.name", self.name, str)
        if not self.name:
            raise ValidationError("Trace.name must be non-empty")
        check_type("Trace.frames", self.frames, tuple)
        if not self.frames:
            raise ValidationError("Trace.frames must be non-empty")
        for key, shader in self.shaders.items():
            if key != shader.shader_id:
                raise ValidationError(
                    f"shader table key {key} != shader_id {shader.shader_id}"
                )
        for key, tex in self.textures.items():
            if key != tex.texture_id:
                raise ValidationError(
                    f"texture table key {key} != texture_id {tex.texture_id}"
                )
        for key, rt in self.render_targets.items():
            if key != rt.target_id:
                raise ValidationError(
                    f"render-target table key {key} != target_id {rt.target_id}"
                )
        for key, buf in self.buffers.items():
            if key != buf.buffer_id:
                raise ValidationError(
                    f"buffer table key {key} != buffer_id {buf.buffer_id}"
                )

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_draws(self) -> int:
        return sum(frame.num_draws for frame in self.frames)

    @cached_property
    def lookup(self) -> TraceLookup:
        """The resource tables as column lookups, built once per trace."""
        return TraceLookup(
            texture_bytes=IdLookup(
                "texture_id",
                {tid: tex.byte_size for tid, tex in self.textures.items()},
                np.int64,
            ),
            target_bytes_per_pixel=IdLookup(
                "render target_id",
                {rid: rt.bytes_per_pixel for rid, rt in self.render_targets.items()},
                np.float64,
            ),
            shader_stats=IdLookup(
                "shader_id",
                {
                    sid: _stats_row(shader.vertex) + _stats_row(shader.pixel)
                    for sid, shader in self.shaders.items()
                },
                np.float64,
                (len(SHADER_STAT_COLUMNS),),
            ),
        )

    @cached_property
    def content_digest(self) -> str:
        """SHA-256 over everything a simulation of the trace can see.

        Hashed: the name; the shader, texture, render-target and buffer
        tables (sorted by id); then per frame its index, its pass spans
        and the bytes of every draw column, little-endian.  Frame and
        trace ``metadata`` stay out, as they do of equality, so equal
        traces share a digest however they were built or loaded.
        Computed once per trace object (traces are immutable).
        """
        fmt = ENCODE[TextureFormat]
        tables = {
            "name": self.name,
            "shaders": [
                [sid, s.name, *_stats_row(s.vertex), *_stats_row(s.pixel)]
                for sid, s in sorted(self.shaders.items())
            ],
            "textures": [
                [tid, t.width, t.height, fmt[t.format], t.mip_levels]
                for tid, t in sorted(self.textures.items())
            ],
            "render_targets": [
                [rid, rt.width, rt.height, fmt[rt.format], rt.samples]
                for rid, rt in sorted(self.render_targets.items())
            ],
            "buffers": [
                [bid, b.byte_size, b.stride] for bid, b in sorted(self.buffers.items())
            ],
        }
        digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode("utf-8"))
        pass_code = ENCODE[PassType]
        for frame in self.frames:
            columns = [
                np.ascontiguousarray(column, dtype=column.dtype.newbyteorder("<"))
                for _, column in frame.table.columns()
            ]
            header = [
                frame.index,
                [[pass_code[s.pass_type], s.name, s.start, s.stop] for s in frame.spans],
                [len(column) for column in columns],
            ]
            digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
            for column in columns:
                digest.update(column.tobytes())
        return digest.hexdigest()

    def draws(self) -> Iterator[DrawCall]:
        """Iterate every draw-call of every frame, in order."""
        for frame in self.frames:
            yield from frame.draws()

    def shader(self, shader_id: int) -> ShaderProgram:
        try:
            return self.shaders[shader_id]
        except KeyError:
            raise ValidationError(f"unknown shader_id {shader_id}") from None

    def texture(self, texture_id: int) -> TextureDesc:
        try:
            return self.textures[texture_id]
        except KeyError:
            raise ValidationError(f"unknown texture_id {texture_id}") from None

    def render_target(self, target_id: int) -> RenderTargetDesc:
        try:
            return self.render_targets[target_id]
        except KeyError:
            raise ValidationError(f"unknown render target_id {target_id}") from None

    def stats(self) -> TraceStats:
        """Compute aggregate statistics over the whole trace."""
        pass_counts: Counter = Counter()
        for frame in self.frames:
            for span in frame.spans:
                pass_counts[span.pass_type.value] += span.stop - span.start
        num_draws = self.num_draws
        return TraceStats(
            num_frames=self.num_frames,
            num_draws=num_draws,
            num_shaders=len(self.shaders),
            num_textures=len(self.textures),
            num_render_targets=len(self.render_targets),
            draws_per_frame_mean=num_draws / self.num_frames,
            draws_per_pass_type=dict(pass_counts),
        )

    def with_frames(self, suffix: str, frames: Sequence[Frame], **metadata) -> "Trace":
        """A trace of ``frames`` on this trace's tables, named ``<name>.<suffix>``.

        The name enters :attr:`content_digest`, so each kind of derived
        trace keeps its own suffix.  ``metadata`` is added to this
        trace's, with ``parent`` set to its name.
        """
        return Trace(
            name=f"{self.name}.{suffix}",
            frames=tuple(frames),
            shaders=dict(self.shaders),
            textures=dict(self.textures),
            render_targets=dict(self.render_targets),
            buffers=dict(self.buffers),
            metadata={**self.metadata, "parent": self.name, **metadata},
        )

    def subset_frames(self, frame_indices: List[int], name_suffix: str = "subset") -> "Trace":
        """Build a new trace containing only the given frames (by position).

        Shader/resource tables are carried over whole; frame ``index``
        fields keep their original values so phase provenance is preserved.
        """
        if not frame_indices:
            raise ValidationError("frame_indices must be non-empty")
        for pos in frame_indices:
            if not 0 <= pos < self.num_frames:
                raise ValidationError(
                    f"frame position {pos} out of range [0, {self.num_frames})"
                )
        return self.with_frames(
            name_suffix,
            [self.frames[pos] for pos in frame_indices],
            parent_frames=self.num_frames,
        )
