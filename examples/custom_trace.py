#!/usr/bin/env python
"""Build a trace by hand with the gfx API and subset it.

Shows the substrate API a user would target when importing real API
captures: declare shaders, resources, and render targets; assemble
frames from draw-calls; validate; then run any part of the methodology.

Run:
    python examples/custom_trace.py
"""

from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.gfx.drawcall import DrawCall
from repro.gfx.enums import PassType, PrimitiveTopology, TextureFormat
from repro.gfx.frame import Frame, RenderPass
from repro.gfx.resources import RenderTargetDesc, TextureDesc
from repro.gfx.shader import make_shader
from repro.gfx.state import FULLSCREEN_STATE, OPAQUE_STATE
from repro.gfx.trace import Trace
from repro.gfx.validate import validate_trace
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator


def build_trace() -> Trace:
    """A two-frame toy capture: terrain + crates + tonemap."""
    shaders = {
        1: make_shader(1, "terrain", vs_alu=30, ps_alu=70, ps_tex=3),
        2: make_shader(2, "crate", vs_alu=18, ps_alu=40, ps_tex=2),
        3: make_shader(3, "tonemap", vs_alu=3, ps_alu=20, ps_tex=1),
    }
    textures = {
        10: TextureDesc(10, 1024, 1024, TextureFormat.BC1, mip_levels=8),
        11: TextureDesc(11, 512, 512, TextureFormat.BC3, mip_levels=7),
        12: TextureDesc(12, 1280, 720, TextureFormat.RGBA16F),
    }
    render_targets = {
        0: RenderTargetDesc(0, 1280, 720, TextureFormat.RGBA8),
        1: RenderTargetDesc(1, 1280, 720, TextureFormat.DEPTH24S8),
        2: RenderTargetDesc(2, 1280, 720, TextureFormat.RGBA16F),
    }

    def terrain() -> DrawCall:
        return DrawCall(
            shader_id=1,
            state=OPAQUE_STATE,
            topology=PrimitiveTopology.TRIANGLE_LIST,
            vertex_count=24000,
            pixels_rasterized=700000,
            pixels_shaded=650000,
            texture_ids=(10,),
            render_target_ids=(2,),
            depth_target_id=1,
        )

    def crate(verts: int, pixels: int) -> DrawCall:
        return DrawCall(
            shader_id=2,
            state=OPAQUE_STATE,
            topology=PrimitiveTopology.TRIANGLE_LIST,
            vertex_count=verts,
            pixels_rasterized=pixels,
            pixels_shaded=int(pixels * 0.8),
            texture_ids=(11,),
            render_target_ids=(2,),
            depth_target_id=1,
        )

    def tonemap() -> DrawCall:
        return DrawCall(
            shader_id=3,
            state=FULLSCREEN_STATE,
            topology=PrimitiveTopology.TRIANGLE_LIST,
            vertex_count=3,
            pixels_rasterized=1280 * 720,
            pixels_shaded=1280 * 720,
            texture_ids=(12,),
            render_target_ids=(0,),
        )

    frames = []
    for index in range(2):
        crates = [crate(900 + 10 * i, 30000 + 500 * i) for i in range(24)]
        frames.append(
            Frame(
                index=index,
                passes=(
                    RenderPass(PassType.FORWARD, (terrain(), *crates)),
                    RenderPass(PassType.POST, (tonemap(),)),
                ),
            )
        )
    return Trace(
        name="custom-capture",
        frames=tuple(frames),
        shaders=shaders,
        textures=textures,
        render_targets=render_targets,
    )


def main() -> None:
    trace = build_trace()
    validate_trace(trace)
    print(f"built {trace.name}: {trace.num_frames} frames, {trace.num_draws} draws")

    config = GpuConfig.preset("mainstream")
    simulator = GpuSimulator(config)
    result = simulator.simulate_frame(trace.frames[0], trace, keep_draw_costs=True)
    print(f"frame 0: {result.time_ns / 1e6:.3f} ms on {config.name}")
    for pass_name, time_ns in result.pass_times_ns.items():
        print(f"  {pass_name:10s} {time_ns / 1e6:.3f} ms")

    features = FeatureExtractor(trace).frame_matrix(trace.frames[0])
    clustering = cluster_frame(features)
    print(
        f"clustering: {clustering.num_draws} draws -> "
        f"{clustering.num_clusters} clusters "
        f"(efficiency {100 * clustering.efficiency:.1f}%)"
    )
    print("cluster populations:", [int(w) for w in clustering.weights])
    # The 24 near-identical crates collapse; terrain and tonemap stand alone.


if __name__ == "__main__":
    main()
