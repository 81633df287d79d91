"""Generated traces and the files written from them are pinned byte for byte.

Every experiment, test and benchmark set-up starts by generating a trace
and writing it, so a change to the generator or to either writer that
moves one byte moves every downstream digest.  These pins catch such a
change at its source.

- Each game's full default script (menu, vista, explore, combat and
  cutscene frames; both renderers) at scale 0.05, seed 5: the content
  digest, the JSON-lines text and the ``.rpb`` bytes.
- The three seed-7 inputs of the end-to-end benchmark, written as its
  set-up writes them: the file sha256 recorded in
  ``benchmarks/e2e/golden.json``.
"""

import hashlib
import io

import pytest

from repro import datasets
from repro.gfx import traceio
from repro.gfx.tracebin import write_trace_binary
from repro.runtime.keys import trace_digest
from repro.synth.generator import generate_trace

#: game -> (trace_digest, sha256 of the JSON-lines text, sha256 of the .rpb bytes)
DEFAULT_SCRIPT_PINS = {
    "bioshock1_like": (
        "e819b75bf6111e6876b7f38f028f9a79bb53d15b6fe870390ce67a879b22d2ed",
        "cee30064137621518809e9804b7a9abe2e5c7d95be422d56baf123105989f9ed",
        "d9c042b92647e7d78b52c46f214b4d16408e44aba79523f14752ba82b487e5d0",
    ),
    "bioshock2_like": (
        "58c6a4e675185b0b8650d9b14cd0647cb578cca35e41f43f3ccf3c47e6a24c76",
        "6e26b2a97f04cc5f0d274f7e6d93e9fb94931d0c38124f3cc6214d730bdce2db",
        "00d6dfff532e582b84ac15ca1b10d1c440cc750c492ba28bacd634819195e194",
    ),
    "bioshock_infinite_like": (
        "0fb39f17a6f5dc62bfcc9f1debdd13cd1cf26834a664eb9a1041704a25e3b7d3",
        "a086c2be05e0d838980a2698d216c09cdc50103ed748de1465d2a03a6bed8cf6",
        "60f560dd47e231ff2698ba46483cfd626a7a5a0c393979812c4c005cbc2ad355",
    ),
}

#: (game, frames, scale, file name, sha256): the seed-7 end-to-end inputs,
#: as in benchmarks/e2e/golden.json.
E2E_INPUT_PINS = (
    (
        "bioshock1_like", 60, 1.0, "input.jsonl",
        "ed47e977207910017aa25c8939c4a5c600b6af0e4306ba28f63e4356004b427d",
    ),
    (
        "bioshock_infinite_like", 20, 1.0, "input.rpb",
        "1b0bd8359528e3e29b4d634e2cabf7f78ce72cec677d5609c33d2ffb35e15f47",
    ),
    (
        "bioshock2_like", 60, 0.5, "input.rpb",
        "4afb0b44e4276af348a95a0bebfe84fd5d95c26c74576677e6e0a91c7aa02520",
    ),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("game", sorted(DEFAULT_SCRIPT_PINS))
def test_default_script_bytes(game):
    trace = generate_trace(game, num_frames=None, seed=5, scale=0.05)
    binary = io.BytesIO()
    write_trace_binary(trace, binary)
    assert (
        trace_digest(trace),
        _sha256(traceio.trace_to_string(trace).encode("utf-8")),
        _sha256(binary.getvalue()),
    ) == DEFAULT_SCRIPT_PINS[game]


@pytest.mark.parametrize(
    "game, frames, scale, name, expected",
    E2E_INPUT_PINS,
    ids=[pin[0] for pin in E2E_INPUT_PINS],
)
def test_e2e_input_bytes(tmp_path, game, frames, scale, name, expected):
    trace = datasets.load(game, frames=frames, seed=7, scale=scale)
    path = tmp_path / name
    traceio.save_trace_auto(trace, path)
    assert _sha256(path.read_bytes()) == expected
