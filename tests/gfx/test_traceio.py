"""Tests for trace serialization."""

import io
import json

import pytest

from repro.errors import TraceFormatError
from repro.gfx.traceio import (
    FORMAT_VERSION,
    load_trace_auto,
    read_trace,
    save_trace_auto,
    trace_from_string,
    trace_to_string,
)

from tests.conftest import make_draw, make_world


class TestRoundTrip:
    def test_string_roundtrip_equal(self, simple_trace):
        text = trace_to_string(simple_trace)
        back = trace_from_string(text)
        assert back.name == simple_trace.name
        assert back.frames == simple_trace.frames
        assert back.shaders == simple_trace.shaders
        assert back.textures == simple_trace.textures
        assert back.render_targets == simple_trace.render_targets

    def test_file_roundtrip(self, simple_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_auto(simple_trace, path)
        back = load_trace_auto(path)
        assert back.frames == simple_trace.frames

    def test_metadata_preserved(self):
        trace = make_world([[make_draw()]])
        trace.metadata["game"] = "bioshock1_like"
        back = trace_from_string(trace_to_string(trace))
        assert back.metadata["game"] == "bioshock1_like"

    def test_double_roundtrip_stable(self, simple_trace):
        once = trace_to_string(simple_trace)
        twice = trace_to_string(trace_from_string(once))
        assert once == twice


class TestFormatErrors:
    def test_empty_stream(self):
        with pytest.raises(TraceFormatError, match="empty"):
            trace_from_string("")

    def test_missing_header(self):
        line = json.dumps({"type": "shader", "id": 1})
        with pytest.raises(TraceFormatError, match="header"):
            trace_from_string(line + "\n")

    def test_bad_version(self, simple_trace):
        text = trace_to_string(simple_trace)
        header = json.loads(text.splitlines()[0])
        header["version"] = FORMAT_VERSION + 1
        body = "\n".join(text.splitlines()[1:])
        with pytest.raises(TraceFormatError, match="version"):
            trace_from_string(json.dumps(header) + "\n" + body)

    def test_malformed_json_line(self, simple_trace):
        text = trace_to_string(simple_trace)
        broken = text + "{not json\n"
        with pytest.raises(TraceFormatError, match="bad JSON"):
            trace_from_string(broken)

    def test_unknown_record_type(self, simple_trace):
        text = trace_to_string(simple_trace)
        extra = json.dumps({"type": "mystery"})
        with pytest.raises(TraceFormatError, match="unknown record type"):
            trace_from_string(text + extra + "\n")

    def test_truncated_record_reports_line(self, simple_trace):
        text = trace_to_string(simple_trace)
        extra = json.dumps({"type": "texture", "id": 1})  # missing fields
        with pytest.raises(TraceFormatError, match="line"):
            trace_from_string(text + extra + "\n")

    @pytest.mark.parametrize("padding", [0, 20_000], ids=["short", "long-header"])
    @pytest.mark.parametrize("bad_line", [1, 3, -1], ids=["first", "third", "last"])
    def test_non_utf8_bytes_name_their_line(self, padding, bad_line):
        # The stream decodes in chunks; a 20 KB header puts the later
        # lines past the first decoded chunk.
        trace = make_world([[make_draw()], [make_draw()]])
        trace.metadata["note"] = "x" * padding
        lines = trace_to_string(trace).encode().splitlines(keepends=True)
        index = bad_line - 1 if bad_line > 0 else len(lines) + bad_line
        lines[index] = lines[index][:2] + b"\xff" + lines[index][2:]
        stream = io.TextIOWrapper(io.BytesIO(b"".join(lines)), encoding="utf-8")
        with pytest.raises(TraceFormatError, match=f"^line {index + 1}: not UTF-8"):
            read_trace(stream)

    def test_blank_lines_ignored(self, simple_trace):
        text = trace_to_string(simple_trace)
        lines = text.splitlines()
        padded = lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n\n"
        back = trace_from_string(padded)
        assert back.num_frames == simple_trace.num_frames


class TestStreamBehaviour:
    def test_write_is_json_lines(self, simple_trace):
        buffer = io.StringIO()
        from repro.gfx.traceio import write_trace

        write_trace(simple_trace, buffer)
        for line in buffer.getvalue().splitlines():
            json.loads(line)  # every line independently parseable


def first_frame_line(text):
    """(1-based line number, parsed record) of the first frame record."""
    for number, line in enumerate(text.splitlines(), start=1):
        record = json.loads(line)
        if record["type"] == "frame":
            return number, record
    raise AssertionError("no frame record")


def with_first_draw(draw_changes):
    """Apply ``draw_changes(draw)`` to the first draw of a small trace's text."""
    text = trace_to_string(make_world([[make_draw(), make_draw()], [make_draw()]]))
    lines = text.splitlines()
    number, record = first_frame_line(text)
    draw_changes(record["passes"][0]["draws"][0])
    lines[number - 1] = json.dumps(record)
    return number, "\n".join(lines) + "\n"


BAD_DRAWS = {
    "tex not a list": lambda d: d.update(tex=5),
    "tex id a bool": lambda d: d.update(tex=[True]),
    "verts a bool": lambda d: d.update(verts=True),
    "verts a float": lambda d: d.update(verts=3.5),
    "verts zero": lambda d: d.update(verts=0),
    "rast beyond int64": lambda d: d.update(rast=2**64),
    "shaded above rast": lambda d: d.update(shaded=d["rast"] + 1),
    "negative depth target": lambda d: d.update(depth_rt=-1),
    "no target at all": lambda d: d.update(rts=[], depth_rt=None),
    "unknown topology": lambda d: d.update(topo="hexagons"),
    "short state": lambda d: d.update(state=d["state"][:2]),
    "missing field": lambda d: d.pop("stride"),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("case", sorted(BAD_DRAWS))
    def test_bad_draw_names_its_line(self, case):
        number, text = with_first_draw(BAD_DRAWS[case])
        with pytest.raises(TraceFormatError, match=f"line {number}:"):
            trace_from_string(text)

    @pytest.mark.parametrize("record", [[1, 2], "frame", 7, None])
    def test_non_object_record_names_its_line(self, simple_trace, record):
        text = trace_to_string(simple_trace)
        number = len(text.splitlines()) + 1
        with pytest.raises(TraceFormatError, match=f"line {number}:"):
            trace_from_string(text + json.dumps(record) + "\n")

    def test_non_object_draw_names_its_line(self):
        text = trace_to_string(make_world([[make_draw()]]))
        lines = text.splitlines()
        number, record = first_frame_line(text)
        record["passes"][0]["draws"][0] = [1, 2]
        lines[number - 1] = json.dumps(record)
        with pytest.raises(TraceFormatError, match=f"line {number}:"):
            trace_from_string("\n".join(lines) + "\n")

    def test_bad_resource_record_names_its_line(self, simple_trace):
        text = trace_to_string(simple_trace)
        record = {"type": "texture", "id": 99, "w": 0, "h": 4, "fmt": "r8", "mips": 1}
        number = len(text.splitlines()) + 1
        with pytest.raises(TraceFormatError, match=f"line {number}:"):
            trace_from_string(text + json.dumps(record) + "\n")
