"""Engine-shape sanity: the simulator's view of generated games matches
renderer intuition (the cross-check between synth and simgpu)."""

from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


def explore_trace(game: str, frames: int = 4):
    profile = GameProfile.preset(game).scaled(0.08)
    script = PhaseScript((Segment(SegmentKind.EXPLORE, 0, frames),))
    return TraceGenerator(profile, seed=81).generate(script=script)


class TestEngineShape:
    def test_deferred_pays_lighting_forward_does_not(self):
        fwd = explore_trace("bioshock1_like")
        dfr = explore_trace("bioshock_infinite_like")
        fwd_out = Runtime().simulate_frames(fwd, CFG)[0]
        dfr_out = Runtime().simulate_frames(dfr, CFG)[0]
        assert "lighting" not in fwd_out.pass_times_ns
        assert dfr_out.pass_times_ns["lighting"] > 0

    def test_opaque_dominates_ui(self):
        trace = explore_trace("bioshock2_like")
        out = Runtime().simulate_frames(trace, CFG)[0]
        opaque = out.pass_times_ns.get("forward", 0) + out.pass_times_ns.get(
            "gbuffer", 0
        )
        assert opaque > out.pass_times_ns["ui"]

    def test_shadow_time_scales_with_light_count(self):
        few = explore_trace("bioshock1_like")  # 2 shadowed lights
        many = explore_trace("bioshock_infinite_like")  # capped at 3
        few_out = Runtime().simulate_frames(few, CFG)[0]
        many_out = Runtime().simulate_frames(many, CFG)[0]
        few_share = few_out.pass_times_ns["shadow"] / few_out.time_ns
        assert few_share > 0.01  # shadows are real work
        assert many_out.pass_times_ns["shadow"] > 0

    def test_deferred_frame_heavier_than_forward(self):
        fwd = explore_trace("bioshock1_like")
        dfr = explore_trace("bioshock_infinite_like")
        t_fwd = Runtime().simulate_frames(fwd, CFG)[0].time_ns
        t_dfr = Runtime().simulate_frames(dfr, CFG)[0].time_ns
        # 1080p deferred with more content costs well over 720p forward.
        assert t_dfr > 1.5 * t_fwd

    def test_frame_times_stable_within_segment(self):
        trace = explore_trace("bioshock2_like", frames=8)
        outputs = Runtime().simulate_frames(trace, CFG)
        times = [out.time_ns for out in outputs]
        spread = (max(times) - min(times)) / max(times)
        assert spread < 0.30  # smooth camera => smooth frame times
