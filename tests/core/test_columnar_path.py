"""Set-up and the load -> subset path run on draw columns alone.

Generating a trace (which validates it), writing it in either format,
loading it and running the subsetting pipeline on it must build no
``DrawCall``: a stray ``draw_list`` on these paths would quietly bring
back the per-draw object cost the columnar trace core removed.
"""

import pytest

from repro.core.pipeline import SubsettingPipeline
from repro.gfx.drawcall import DrawCall
from repro.gfx.traceio import load_trace_auto, save_trace_auto, trace_to_string
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import generate_trace


@pytest.fixture
def drawcalls_built(monkeypatch):
    """A list that grows by one for every ``DrawCall`` constructed."""
    built = []
    original = DrawCall.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(DrawCall, "__post_init__", counting)
    return built


@pytest.mark.parametrize("game", ["bioshock1_like", "bioshock_infinite_like"])
def test_generate_and_write_build_no_drawcall(tmp_path, drawcalls_built, game):
    trace = generate_trace(game, num_frames=16, seed=3, scale=0.1)
    save_trace_auto(trace, tmp_path / "trace.jsonl")
    save_trace_auto(trace, tmp_path / "trace.rpb")
    trace_to_string(trace)
    assert trace.num_draws > 0
    assert len(drawcalls_built) == 0


def test_load_and_subset_build_no_drawcall(tmp_path, drawcalls_built):
    trace = generate_trace("bioshock1_like", num_frames=16, seed=3, scale=0.1)
    save_trace_auto(trace, tmp_path / "trace.jsonl")
    save_trace_auto(trace, tmp_path / "trace.rpb")
    for name in ("trace.jsonl", "trace.rpb"):
        loaded = load_trace_auto(tmp_path / name)
        result = SubsettingPipeline().run(
            loaded,
            GpuConfig.preset("mainstream"),
            keep_clusterings=True,
            runtime=Runtime(jobs=1),
        )
        assert len(result.clusterings) == trace.num_frames
    assert len(drawcalls_built) == 0
