"""Tests for format auto-detection in trace IO."""

import pytest

from repro.errors import TraceFormatError
from repro.gfx.traceio import load_trace_auto, save_trace_auto

from tests.conftest import make_draw, make_world


class TestAutoIO:
    def test_json_by_default(self, tmp_path, simple_trace):
        path = tmp_path / "t.jsonl"
        save_trace_auto(simple_trace, path)
        assert path.read_bytes().startswith(b"{")
        back = load_trace_auto(path)
        assert back.frames == simple_trace.frames

    def test_binary_by_suffix(self, tmp_path, simple_trace):
        path = tmp_path / "t.rpb"
        save_trace_auto(simple_trace, path)
        assert path.read_bytes().startswith(b"RPB1")
        back = load_trace_auto(path)
        assert back.frames == simple_trace.frames

    def test_load_sniffs_content_not_suffix(self, tmp_path):
        # A binary trace saved with a .jsonl name still loads.
        from repro.gfx.tracebin import write_trace_binary

        trace = make_world([[make_draw()]])
        path = tmp_path / "mislabeled.jsonl"
        with open(path, "wb") as handle:
            write_trace_binary(trace, handle)
        back = load_trace_auto(path)
        assert back.frames == trace.frames

    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x80\x81garbage\n")
        with pytest.raises(TraceFormatError, match="line 1: not UTF-8"):
            load_trace_auto(path)
        assert main(["info", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_generates_binary(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "t.rpb"
        code = main(
            [
                "generate",
                "--game",
                "bioshock1_like",
                "--frames",
                "4",
                "--scale",
                "0.05",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        assert path.read_bytes().startswith(b"RPB1")
        assert main(["info", str(path)]) == 0
