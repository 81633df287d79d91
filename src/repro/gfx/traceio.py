"""Versioned JSON-lines serialization for traces.

Format: one JSON object per line.  The first line is a header carrying the
format version and trace name; subsequent lines declare shaders, textures,
render targets, buffers, then frames.  The format is append-friendly and
streamable, which matters for paper-scale corpora (828K draw-calls).
"""

from __future__ import annotations

import io
import json
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Dict, IO, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError, ValidationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.drawtable import ENCODE, DrawTable, offsets_from_lengths
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


def _draw_to_dict(draw: DrawCall) -> dict:
    return {
        "shader": draw.shader_id,
        "state": list(draw.state.state_key),
        "topo": draw.topology.value,
        "verts": draw.vertex_count,
        "inst": draw.instance_count,
        "rast": draw.pixels_rasterized,
        "shaded": draw.pixels_shaded,
        "tex": list(draw.texture_ids),
        "rts": list(draw.render_target_ids),
        "depth_rt": draw.depth_target_id,
        "stride": draw.vertex_stride_bytes,
        "pass": draw.pass_type.value,
    }


#: The draw fields of a JSON frame record: the int columns in
#: ``INT_COLUMNS`` order (``depth_rt`` is ``depth_target``), the enum
#: strings, then the id lists.
_DRAW_FIELDS = itemgetter(
    "shader", "verts", "inst", "rast", "shaded", "stride", "depth_rt",
    "topo", "state", "pass", "tex", "rts",
)
#: Enum value string -> column code, per enum.
_VALUE_CODES: Dict[type, Dict[str, int]] = {
    enum_type: {member.value: code for member, code in table.items()}
    for enum_type, table in ENCODE.items()
}


def _ints(field: str, values: Sequence[object]) -> np.ndarray:
    """``values`` as an int64 column, accepting Python ints only.

    numpy would silently take ``True`` as 1 and ``3.5`` as 3, so the
    types are checked first, exactly as ``DrawCall`` checks them.
    """
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValidationError(f"{field} must be int, got {type(bad).__name__} {bad!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{field} value outside the int64 range") from None


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


def _id_lists(field: str, lists: Sequence[object]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-draw JSON id lists as (flat int64 ids, offsets)."""
    if not set(map(type, lists)) <= {list}:
        raise ValidationError(f"{field} must be a list of ids")
    ids = _ints(f"{field}[*]", list(chain.from_iterable(lists)))  # type: ignore[arg-type]
    return ids, offsets_from_lengths(list(map(len, lists)))  # type: ignore[arg-type]


def _depth_targets(values: Sequence[object]) -> np.ndarray:
    """The ``depth_rt`` column: an id, or ``None`` stored as -1."""
    bound = np.array([v is not None for v in values], dtype=bool)
    ids = _ints("depth_rt", [v for v in values if v is not None])
    if (ids < 0).any():
        raise ValidationError(f"depth_rt must be >= 0 or null, got {int(ids.min())}")
    column = np.full(len(values), -1, dtype=np.int64)
    column[bound] = ids
    return column


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
    texture_ids, texture_offsets = _id_lists("tex", tex)
    target_ids, target_offsets = _id_lists("rts", rts)
    table = DrawTable(
        shader_id=_ints("shader", shader),
        vertex_count=_ints("verts", verts),
        instance_count=_ints("inst", inst),
        pixels_rasterized=_ints("rast", rast),
        pixels_shaded=_ints("shaded", shaded),
        vertex_stride=_ints("stride", stride),
        depth_target=_depth_targets(depth_rt),
        topology=_codes("topo", PrimitiveTopology, topo),
        depth=_codes("state[0]", DepthMode, depth_modes),
        blend=_codes("state[1]", BlendMode, blends),
        cull=_codes("state[2]", CullMode, culls),
        pass_type=_codes("pass", PassType, pass_),
        texture_ids=texture_ids,
        texture_offsets=texture_offsets,
        render_target_ids=target_ids,
        render_target_offsets=target_offsets,
    )
    table.validate()
    return Frame.from_table(record["index"], table, spans)


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
        record = {
            "type": "frame",
            "index": frame.index,
            "passes": [
                {
                    "pass_type": rp.pass_type.value,
                    "name": rp.name,
                    "draws": [_draw_to_dict(d) for d in rp.draws],
                }
                for rp in frame.passes
            ],
        }
        stream.write(json.dumps(record) + "\n")


def read_trace(stream: IO[str]) -> Trace:
    """Parse a trace from an open text stream of JSON lines."""
    first = stream.readline()
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

    for line_number, line in enumerate(stream, start=2):
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


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (overwrites)."""
    with open(path, "w", encoding="utf-8") as handle:
        write_trace(trace, handle)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_trace(handle)


BINARY_SUFFIXES = (".rpb", ".bin")


def save_trace_auto(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` choosing the format by file suffix.

    ``.rpb``/``.bin`` select the compact binary format
    (:mod:`repro.gfx.tracebin`); anything else writes JSON lines.
    """
    if str(path).endswith(BINARY_SUFFIXES):
        from repro.gfx.tracebin import save_trace_binary

        save_trace_binary(trace, path)
    else:
        save_trace(trace, path)


def load_trace_auto(path: Union[str, Path]) -> Trace:
    """Read a trace detecting the format from the file's first bytes."""
    from repro.gfx.tracebin import MAGIC, load_trace_binary

    with open(path, "rb") as handle:
        head = handle.read(4)
    if head == MAGIC:
        return load_trace_binary(path)
    return load_trace(path)


def trace_to_string(trace: Trace) -> str:
    """Serialize a trace to an in-memory string (tests and tooling)."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()


def trace_from_string(text: str) -> Trace:
    """Parse a trace from an in-memory string."""
    return read_trace(io.StringIO(text))
