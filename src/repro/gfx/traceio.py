"""Versioned JSON-lines serialization for traces.

Format: one JSON object per line.  The first line is a header carrying the
format version and trace name; subsequent lines declare shaders, textures,
render targets, buffers, then frames.  The format is append-friendly and
streamable, which matters for paper-scale corpora (828K draw-calls).
"""

from __future__ import annotations

import io
import json
from operator import itemgetter
from pathlib import Path
from typing import Dict, IO, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError, ValidationError
from repro.gfx.drawtable import (
    CODE_COLUMNS,
    DECODE,
    ENCODE,
    ID_LISTS,
    INT_COLUMNS,
    DrawTable,
    id_tuples,
)
from repro.gfx.enums import (
    BlendMode,
    CullMode,
    DepthMode,
    PassType,
    PrimitiveTopology,
    TextureFormat,
)
from repro.gfx.frame import Frame, PassSpan
from repro.gfx.resources import BufferDesc, RenderTargetDesc, TextureDesc
from repro.gfx.shader import ShaderProgram, ShaderStats
from repro.gfx.trace import Trace

FORMAT_VERSION = 1


def _shader_stats_to_dict(stats: ShaderStats) -> dict:
    return {
        "alu_ops": stats.alu_ops,
        "tex_ops": stats.tex_ops,
        "interpolants": stats.interpolants,
        "registers": stats.registers,
        "branch_ops": stats.branch_ops,
    }


def _shader_stats_from_dict(data: dict) -> ShaderStats:
    return ShaderStats(
        alu_ops=data["alu_ops"],
        tex_ops=data["tex_ops"],
        interpolants=data["interpolants"],
        registers=data["registers"],
        branch_ops=data.get("branch_ops", 0),
    )


#: The draw fields of a JSON frame record: the int columns in
#: ``INT_COLUMNS`` order (``depth_rt`` is ``depth_target``), the enum
#: strings, then the id lists.
_DRAW_FIELDS = itemgetter(
    "shader", "verts", "inst", "rast", "shaded", "stride", "depth_rt",
    "topo", "state", "pass", "tex", "rts",
)
#: The names of the ``DrawTable.checked`` values in a JSON draw object.
_DRAW_LABELS = (
    "shader", "verts", "inst", "rast", "shaded", "stride", "depth_rt",
    "topo", "state[0]", "state[1]", "state[2]", "pass", "tex", "rts",
)
#: Enum value string -> column code, per enum.
_VALUE_CODES: Dict[type, Dict[str, int]] = {
    enum_type: {member.value: code for member, code in table.items()}
    for enum_type, table in ENCODE.items()
}
#: Column code -> enum value string, per code column.
_VALUE_STRINGS: Dict[str, Tuple[str, ...]] = {
    name: tuple(member.value for member in DECODE[enum_type])
    for name, enum_type in CODE_COLUMNS
}


def _codes(field: str, enum_type: type, values: Sequence[object]) -> np.ndarray:
    """Enum value strings as a uint8 code column."""
    table = _VALUE_CODES[enum_type]
    try:
        return np.array(list(map(table.__getitem__, values)), dtype=np.uint8)
    except (KeyError, TypeError):
        bad = next(v for v in values if not isinstance(v, str) or v not in table)
        raise ValidationError(
            f"{field} {bad!r} is not a {enum_type.__name__} value"
        ) from None


def _frame_from_record(record: dict) -> Frame:
    """A frame record's draws gathered straight into columns."""
    draws: list = []
    spans: List[PassSpan] = []
    for render_pass in record["passes"]:
        pass_draws = render_pass["draws"]
        if type(pass_draws) is not list:
            raise ValidationError("a pass's draws must be a list")
        spans.append(
            PassSpan(
                PassType(render_pass["pass_type"]),
                render_pass.get("name", ""),
                len(draws),
                len(draws) + len(pass_draws),
            )
        )
        draws.extend(pass_draws)
    if not set(map(type, draws)) <= {dict}:
        raise ValidationError("every draw must be a JSON object")
    fields = list(zip(*map(_DRAW_FIELDS, draws))) or [()] * 12
    shader, verts, inst, rast, shaded, stride, depth_rt, topo, state, pass_, tex, rts = fields
    if not set(map(type, state)) <= {list} or not set(map(len, state)) <= {3}:
        raise ValidationError("state must be a [depth, blend, cull] list")
    depth_modes, blends, culls = list(zip(*state)) or [()] * 3
    table = DrawTable.checked(
        (
            shader, verts, inst, rast, shaded, stride, depth_rt,
            _codes("topo", PrimitiveTopology, topo),
            _codes("state[0]", DepthMode, depth_modes),
            _codes("state[1]", BlendMode, blends),
            _codes("state[2]", CullMode, culls),
            _codes("pass", PassType, pass_),
            tex, rts,
        ),
        _DRAW_LABELS,
    )
    return Frame.from_table(record["index"], table, spans)


def _frame_record(frame: Frame) -> dict:
    """A frame's JSON record, its draw objects read from the columns."""
    table = frame.table
    ints = (getattr(table, name).tolist() for name in INT_COLUMNS)
    codes = (
        list(map(_VALUE_STRINGS[name].__getitem__, getattr(table, name).tolist()))
        for name, _ in CODE_COLUMNS
    )
    lists = (
        id_tuples(getattr(table, ids_name), getattr(table, offsets_name), 0, len(table))
        for ids_name, offsets_name in ID_LISTS
    )
    draws = [
        {
            "shader": shader,
            "state": [depth, blend, cull],
            "topo": topo,
            "verts": verts,
            "inst": inst,
            "rast": rast,
            "shaded": shaded,
            "tex": tex,
            "rts": rts,
            "depth_rt": None if depth_rt < 0 else depth_rt,
            "stride": stride,
            "pass": pass_,
        }
        for (
            shader, verts, inst, rast, shaded, stride, depth_rt,
            topo, depth, blend, cull, pass_, tex, rts,
        ) in zip(*ints, *codes, *lists)
    ]
    return {
        "type": "frame",
        "index": frame.index,
        "passes": [
            {
                "pass_type": span.pass_type.value,
                "name": span.name,
                "draws": draws[span.start : span.stop],
            }
            for span in frame.spans
        ],
    }


def write_trace(trace: Trace, stream: IO[str]) -> None:
    """Serialize ``trace`` to an open text stream as JSON lines."""
    header = {
        "type": "header",
        "version": FORMAT_VERSION,
        "name": trace.name,
        "metadata": trace.metadata,
    }
    stream.write(json.dumps(header) + "\n")
    for shader in trace.shaders.values():
        record = {
            "type": "shader",
            "id": shader.shader_id,
            "name": shader.name,
            "vertex": _shader_stats_to_dict(shader.vertex),
            "pixel": _shader_stats_to_dict(shader.pixel),
        }
        stream.write(json.dumps(record) + "\n")
    for tex in trace.textures.values():
        record = {
            "type": "texture",
            "id": tex.texture_id,
            "w": tex.width,
            "h": tex.height,
            "fmt": tex.format.value,
            "mips": tex.mip_levels,
        }
        stream.write(json.dumps(record) + "\n")
    for rt in trace.render_targets.values():
        record = {
            "type": "render_target",
            "id": rt.target_id,
            "w": rt.width,
            "h": rt.height,
            "fmt": rt.format.value,
            "samples": rt.samples,
        }
        stream.write(json.dumps(record) + "\n")
    for buf in trace.buffers.values():
        record = {
            "type": "buffer",
            "id": buf.buffer_id,
            "bytes": buf.byte_size,
            "stride": buf.stride,
        }
        stream.write(json.dumps(record) + "\n")
    for frame in trace.frames:
        # Built fresh from the columns, a frame record holds no cycle to
        # check for; skipping the check does not change the text.
        stream.write(json.dumps(_frame_record(frame), check_circular=False) + "\n")


def _numbered_lines(stream: IO[str]) -> Iterator[Tuple[int, str]]:
    """``(line number, line)`` pairs from 1; undecodable bytes are a format error.

    A text stream decodes a new chunk only when the text it holds has no
    whole line left, so the bad bytes sit in the line being read, or in a
    later one if the chunk has newlines before them.
    """
    line_number = 0
    try:
        for line_number, line in enumerate(stream, start=1):
            yield line_number, line
    except UnicodeDecodeError as exc:
        bad_line = line_number + 1 + exc.object.count(b"\n", 0, exc.start)
        raise TraceFormatError(
            f"line {bad_line}: not UTF-8 text: {exc.reason}"
        ) from exc


def read_trace(stream: IO[str]) -> Trace:
    """Parse a trace from an open text stream of JSON lines."""
    lines = _numbered_lines(stream)
    _, first = next(lines, (1, ""))
    if not first:
        raise TraceFormatError("empty trace stream")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != "header":
        raise TraceFormatError("line 1: the first record must be a header object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )

    shaders: Dict[int, ShaderProgram] = {}
    textures: Dict[int, TextureDesc] = {}
    render_targets: Dict[int, RenderTargetDesc] = {}
    buffers: Dict[int, BufferDesc] = {}
    frames: List[Frame] = []

    for line_number, line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {line_number}: bad JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceFormatError(
                f"line {line_number}: a record must be a JSON object, "
                f"got {type(record).__name__}"
            )
        kind = record.get("type")
        try:
            if kind == "shader":
                shaders[record["id"]] = ShaderProgram(
                    shader_id=record["id"],
                    name=record["name"],
                    vertex=_shader_stats_from_dict(record["vertex"]),
                    pixel=_shader_stats_from_dict(record["pixel"]),
                )
            elif kind == "texture":
                textures[record["id"]] = TextureDesc(
                    texture_id=record["id"],
                    width=record["w"],
                    height=record["h"],
                    format=TextureFormat(record["fmt"]),
                    mip_levels=record["mips"],
                )
            elif kind == "render_target":
                render_targets[record["id"]] = RenderTargetDesc(
                    target_id=record["id"],
                    width=record["w"],
                    height=record["h"],
                    format=TextureFormat(record["fmt"]),
                    samples=record["samples"],
                )
            elif kind == "buffer":
                buffers[record["id"]] = BufferDesc(
                    buffer_id=record["id"],
                    byte_size=record["bytes"],
                    stride=record["stride"],
                )
            elif kind == "frame":
                frames.append(_frame_from_record(record))
            else:
                raise TraceFormatError(
                    f"line {line_number}: unknown record type {kind!r}"
                )
        except (KeyError, ValueError, TypeError, AttributeError, ValidationError) as exc:
            raise TraceFormatError(
                f"line {line_number}: bad {kind!r} record: {exc}"
            ) from exc

    return Trace(
        name=header["name"],
        frames=tuple(frames),
        shaders=shaders,
        textures=textures,
        render_targets=render_targets,
        buffers=buffers,
        metadata=header.get("metadata", {}),
    )


BINARY_SUFFIXES = (".rpb", ".bin")


def save_trace_auto(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (overwrites), choosing the format by suffix.

    ``.rpb``/``.bin`` select the compact binary format
    (:mod:`repro.gfx.tracebin`); anything else writes JSON lines.
    """
    if str(path).endswith(BINARY_SUFFIXES):
        from repro.gfx.tracebin import write_trace_binary

        with open(path, "wb") as handle:
            write_trace_binary(trace, handle)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            write_trace(trace, handle)


def load_trace_auto(path: Union[str, Path]) -> Trace:
    """Read a trace from ``path``, detecting the format from its first bytes."""
    from repro.gfx.tracebin import MAGIC, read_trace_binary

    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) == MAGIC:
            handle.seek(0)
            return read_trace_binary(handle)
    with open(path, "r", encoding="utf-8") as handle:
        return read_trace(handle)


def trace_to_string(trace: Trace) -> str:
    """Serialize a trace to an in-memory string (tests and tooling)."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()


def trace_from_string(text: str) -> Trace:
    """Parse a trace from an in-memory string."""
    return read_trace(io.StringIO(text))
