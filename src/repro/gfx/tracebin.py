"""Compact binary trace format.

JSON lines (:mod:`repro.gfx.traceio`) are debuggable but bulky — a
paper-scale corpus serializes to hundreds of megabytes.  This module
packs the same information with ``struct``: enum values become one-byte
codes via per-enum tables, draw records become fixed-width rows plus
variable-length id lists.  Round-trips are exact (everything stored is
integral), and both formats read back to equal traces.

Layout (little-endian):

    magic b"RPB1" | section SHDR | section TEXR | section RTGT |
    section BUFR | section FRMS | magic b"REND"

Each section starts with a 4-byte tag and a u32 record count.
"""

from __future__ import annotations

import struct
from typing import Any, BinaryIO, Callable, Dict, List, TypeVar

import numpy as np

from repro.errors import TraceFormatError, ValidationError
from repro.gfx.drawtable import (
    CODE_COLUMNS,
    DECODE,
    ENCODE,
    INT_COLUMNS,
    DrawTable,
    offsets_from_lengths,
)
from repro.gfx.enums import PassType, TextureFormat
from repro.gfx.frame import Frame, PassSpan
from repro.gfx.resources import BufferDesc, RenderTargetDesc, TextureDesc
from repro.gfx.shader import ShaderProgram, ShaderStats
from repro.gfx.trace import Trace

MAGIC = b"RPB1"
END_MAGIC = b"REND"

#: One-byte enum codes: the one code table in :mod:`repro.gfx.drawtable`.
_ENCODE = ENCODE

_U32 = struct.Struct("<I")
_SHADER_STATS = struct.Struct("<IIIII")
_TEXTURE = struct.Struct("<IIIBB")
_RENDER_TARGET = struct.Struct("<IIIBB")
_BUFFER = struct.Struct("<III")
# shader_id, verts, instances, rast, shaded, stride, depth+1, topo, depth
# mode, blend, cull, pass, n_tex, n_rts
_DRAW_FIXED = struct.Struct("<IIQQQIIBBBBBBB")
_DRAW_FIXED_FIELDS = 14


def _write_u32(stream: BinaryIO, value: int) -> None:
    stream.write(_U32.pack(value))


def _write_str(stream: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    _write_u32(stream, len(raw))
    stream.write(raw)


def _write_stats(stream: BinaryIO, stats: ShaderStats) -> None:
    stream.write(
        _SHADER_STATS.pack(
            stats.alu_ops,
            stats.tex_ops,
            stats.interpolants,
            stats.registers,
            stats.branch_ops,
        )
    )


def write_trace_binary(trace: Trace, stream: BinaryIO) -> None:
    """Serialize ``trace`` to an open binary stream."""
    stream.write(MAGIC)
    _write_str(stream, trace.name)

    stream.write(b"SHDR")
    _write_u32(stream, len(trace.shaders))
    for shader in trace.shaders.values():
        _write_u32(stream, shader.shader_id)
        _write_str(stream, shader.name)
        _write_stats(stream, shader.vertex)
        _write_stats(stream, shader.pixel)

    stream.write(b"TEXR")
    _write_u32(stream, len(trace.textures))
    for tex in trace.textures.values():
        stream.write(
            _TEXTURE.pack(
                tex.texture_id,
                tex.width,
                tex.height,
                _ENCODE[TextureFormat][tex.format],
                tex.mip_levels,
            )
        )

    stream.write(b"RTGT")
    _write_u32(stream, len(trace.render_targets))
    for rt in trace.render_targets.values():
        stream.write(
            _RENDER_TARGET.pack(
                rt.target_id,
                rt.width,
                rt.height,
                _ENCODE[TextureFormat][rt.format],
                rt.samples,
            )
        )

    stream.write(b"BUFR")
    _write_u32(stream, len(trace.buffers))
    for buf in trace.buffers.values():
        stream.write(_BUFFER.pack(buf.buffer_id, buf.byte_size, buf.stride))

    stream.write(b"FRMS")
    _write_u32(stream, len(trace.frames))
    for frame in trace.frames:
        stream.write(_frame_bytes(frame))
    stream.write(END_MAGIC)


def _frame_bytes(frame: Frame) -> bytes:
    """One frame record, its draw rows packed from the columns."""
    table = frame.table
    fixed = zip(
        *(getattr(table, name).tolist() for name in INT_COLUMNS[:-1]),
        (table.depth_target + 1).tolist(),
        *(getattr(table, name).tolist() for name, _ in CODE_COLUMNS),
        np.diff(table.texture_offsets).tolist(),
        np.diff(table.render_target_offsets).tolist(),
    )
    textures, targets = table.texture_ids.tolist(), table.render_target_ids.tolist()
    tex_at, rts_at = table.texture_offsets.tolist(), table.render_target_offsets.tolist()
    runs = _ID_RUNS
    draws = []
    for values, a, b, c, d in zip(fixed, tex_at, tex_at[1:], rts_at, rts_at[1:]):
        # Each draw's ids are its textures then its render targets.
        k = b - a + d - c
        run = runs.get(k) or runs.setdefault(k, struct.Struct(f"<{k}I"))
        draws.append(_DRAW_FIXED.pack(*values) + run.pack(*textures[a:b], *targets[c:d]))
    parts = [_U32.pack(frame.index), _U32.pack(len(frame.spans))]
    for span in frame.spans:
        name = span.name.encode("utf-8")
        parts += [
            bytes([_ENCODE[PassType][span.pass_type]]),
            _U32.pack(len(name)),
            name,
            _U32.pack(span.stop - span.start),
            *draws[span.start : span.stop],
        ]
    return b"".join(parts)


class _Reader:
    """A cursor over a whole binary trace held in memory."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def unpack(self, layout: struct.Struct) -> tuple:
        values = layout.unpack_from(self.data, self.pos)  # struct.error when short
        self.pos += layout.size
        return values

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise TraceFormatError("unexpected end of binary trace")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def text(self) -> str:
        return self.raw(self.u32()).decode("utf-8")

    def expect(self, tag: bytes) -> None:
        found = self.data[self.pos : self.pos + len(tag)]
        if found != tag:
            raise TraceFormatError(
                f"expected section tag {tag!r} at byte {self.pos}, found {found!r}"
            )
        self.pos += len(tag)


_RecordT = TypeVar("_RecordT")


def _read_section(
    reader: _Reader, tag: bytes, label: str, read_one: Callable[[_Reader], _RecordT]
) -> List[_RecordT]:
    """A section's records; any defect raises TraceFormatError naming the record."""
    reader.expect(tag)
    try:
        count = reader.u32()
    except struct.error:
        raise TraceFormatError(f"unexpected end of binary trace in {tag!r}") from None
    records = []
    for position in range(count):
        start = reader.pos
        try:
            records.append(read_one(reader))
        except (
            TraceFormatError, ValidationError, struct.error, OverflowError, UnicodeDecodeError
        ) as exc:
            raise TraceFormatError(f"{label} {position} at byte {start}: {exc}") from exc
    return records


def _decode(enum_type: type, code: int) -> Any:
    members = DECODE[enum_type]
    if code >= len(members):
        raise TraceFormatError(f"byte {code} is not a {enum_type.__name__} code")
    return members[code]


def _read_stats(reader: _Reader) -> ShaderStats:
    alu, tex, interp, regs, branch = reader.unpack(_SHADER_STATS)
    return ShaderStats(
        alu_ops=alu, tex_ops=tex, interpolants=interp, registers=regs, branch_ops=branch
    )


def _read_shader(reader: _Reader) -> ShaderProgram:
    shader_id = reader.u32()
    name = reader.text()
    vertex = _read_stats(reader)
    return ShaderProgram(shader_id=shader_id, name=name, vertex=vertex, pixel=_read_stats(reader))


def _read_texture(reader: _Reader) -> TextureDesc:
    tid, w, h, fmt, mips = reader.unpack(_TEXTURE)
    return TextureDesc(
        texture_id=tid, width=w, height=h, format=_decode(TextureFormat, fmt), mip_levels=mips
    )


def _read_render_target(reader: _Reader) -> RenderTargetDesc:
    rid, w, h, fmt, samples = reader.unpack(_RENDER_TARGET)
    return RenderTargetDesc(
        target_id=rid, width=w, height=h, format=_decode(TextureFormat, fmt), samples=samples
    )


def _read_buffer(reader: _Reader) -> BufferDesc:
    bid, size, stride = reader.unpack(_BUFFER)
    return BufferDesc(buffer_id=bid, byte_size=size, stride=stride)


#: ``Struct`` of ``k`` consecutive u32 ids, by ``k``.
_ID_RUNS: Dict[int, struct.Struct] = {}


def _read_frame(reader: _Reader) -> Frame:
    """One frame's rows gathered straight into columns (no per-draw objects)."""
    index = reader.u32()
    spans: List[PassSpan] = []
    rows: List[tuple] = []
    ids: List[int] = []
    data, row_layout, runs = reader.data, _DRAW_FIXED, _ID_RUNS
    for _ in range(reader.u32()):
        pass_type = _decode(PassType, reader.raw(1)[0])
        name = reader.text()
        count = reader.u32()
        pos = reader.pos
        for _ in range(count):
            row = row_layout.unpack_from(data, pos)
            pos += row_layout.size
            rows.append(row)
            k = row[12] + row[13]
            if k:
                run = runs.get(k) or runs.setdefault(k, struct.Struct(f"<{k}I"))
                ids.extend(run.unpack_from(data, pos))
                pos += run.size
        reader.pos = pos
        spans.append(PassSpan(pass_type, name, len(rows) - count, len(rows)))
    fixed = np.array(rows, dtype=np.int64).reshape(-1, _DRAW_FIXED_FIELDS)
    # Each draw's ids are its textures then its render targets.
    n_tex, n_rts = fixed[:, 12], fixed[:, 13]
    block = n_tex + n_rts
    within = np.arange(len(ids)) - np.repeat(offsets_from_lengths(block)[:-1], block)
    is_texture = within < np.repeat(n_tex, block)
    flat = np.array(ids, dtype=np.int64)
    table = DrawTable(
        **dict(zip(INT_COLUMNS, fixed[:, :6].T)),
        depth_target=fixed[:, 6] - 1,
        **{name: fixed[:, 7 + k] for k, (name, _) in enumerate(CODE_COLUMNS)},
        texture_ids=flat[is_texture],
        texture_offsets=offsets_from_lengths(n_tex),
        render_target_ids=flat[~is_texture],
        render_target_offsets=offsets_from_lengths(n_rts),
    )
    table.validate()
    return Frame.from_table(index, table, spans)


def read_trace_binary(stream: BinaryIO) -> Trace:
    """Parse a trace from an open binary stream.

    Every defect (a cut anywhere, an unknown enum byte, an invalid
    value) raises :class:`TraceFormatError` naming the record and the
    byte offset where it starts.
    """
    reader = _Reader(stream.read())
    magic = reader.data[:4]
    if magic != MAGIC:
        raise TraceFormatError(
            f"not a binary trace (magic {magic!r}, expected {MAGIC!r})"
        )
    reader.pos = len(MAGIC)
    try:
        name = reader.text()
    except (struct.error, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"bad trace name: {exc}") from exc
    shaders = _read_section(reader, b"SHDR", "shader", _read_shader)
    textures = _read_section(reader, b"TEXR", "texture", _read_texture)
    targets = _read_section(reader, b"RTGT", "render target", _read_render_target)
    buffers = _read_section(reader, b"BUFR", "buffer", _read_buffer)
    frames = _read_section(reader, b"FRMS", "frame", _read_frame)
    if reader.data[reader.pos : reader.pos + len(END_MAGIC)] != END_MAGIC:
        raise TraceFormatError("binary trace missing end marker (truncated?)")
    try:
        return Trace(
            name=name,
            frames=tuple(frames),
            shaders={s.shader_id: s for s in shaders},
            textures={t.texture_id: t for t in textures},
            render_targets={rt.target_id: rt for rt in targets},
            buffers={b.buffer_id: b for b in buffers},
        )
    except ValidationError as exc:
        raise TraceFormatError(f"bad binary trace: {exc}") from exc
