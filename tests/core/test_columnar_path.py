"""The load -> subset path runs on draw columns alone.

Loading a trace and running the subsetting pipeline on it must build no
``DrawCall``: a stray ``draw_list`` on that path would quietly bring
back the per-draw object cost the columnar trace core removed.
"""

from repro.core.pipeline import SubsettingPipeline
from repro.gfx.drawcall import DrawCall
from repro.gfx.tracebin import save_trace_binary
from repro.gfx.traceio import load_trace_auto, save_trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import generate_trace


def test_load_and_subset_build_no_drawcall(tmp_path, monkeypatch):
    trace = generate_trace("bioshock1_like", num_frames=16, seed=3, scale=0.1)
    save_trace(trace, tmp_path / "trace.jsonl")
    save_trace_binary(trace, tmp_path / "trace.rpb")
    built = []
    original = DrawCall.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(DrawCall, "__post_init__", counting)
    for name in ("trace.jsonl", "trace.rpb"):
        loaded = load_trace_auto(tmp_path / name)
        result = SubsettingPipeline().run(
            loaded,
            GpuConfig.preset("mainstream"),
            keep_clusterings=True,
            runtime=Runtime(jobs=1),
        )
        assert len(result.clusterings) == trace.num_frames
    assert len(built) == 0
