"""Per-draw cost model: stage cycles, memory traffic, and their combination.

:func:`draw_cost` is a pure function of the draw, its resolved resources,
the architecture configuration, and the context effects supplied by the
state tracker.  Both the sequential simulator and the vectorized batch
path compute exactly this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.gfx.drawcall import DrawCall
from repro.gfx.resources import RenderTargetDesc, TextureDesc
from repro.gfx.shader import ShaderProgram
import repro.simgpu.memory as memory
import repro.simgpu.raster as raster
import repro.simgpu.rop as rop
import repro.simgpu.shadercore as shadercore
import repro.simgpu.texture as texture
from repro.simgpu.config import GpuConfig
from repro.simgpu.memory import TrafficBreakdown
from repro.simgpu.state_tracker import TrackerEffects
from repro.util.rng import stable_unit

STAGE_NAMES = ("vertex", "fetch", "raster", "pixel", "texture", "rop")


@dataclass(frozen=True)
class DrawCost:
    """Full cost breakdown of one draw on one architecture."""

    vertex_cycles: float
    fetch_cycles: float
    raster_cycles: float
    pixel_cycles: float
    texture_cycles: float
    rop_cycles: float
    switch_cycles: float
    overhead_cycles: float
    core_cycles: float
    traffic: TrafficBreakdown
    dram_cycles: float
    time_ns: float
    bottleneck: str

    @property
    def stage_cycles(self) -> Tuple[float, ...]:
        return (
            self.vertex_cycles,
            self.fetch_cycles,
            self.raster_cycles,
            self.pixel_cycles,
            self.texture_cycles,
            self.rop_cycles,
        )


def noise_multiplier(config: GpuConfig, noise_key: Tuple[object, ...]) -> float:
    """Deterministic 'unmodeled effects' multiplier for a draw slot.

    Keyed by execution slot (frame index, draw position), not by draw
    contents, so identical draws at different slots cost slightly
    differently — modeling DRAM refresh, scheduling jitter, and other
    effects outside the analytical model.
    """
    if config.noise_amplitude == 0.0:
        return 1.0
    unit = stable_unit("simgpu-noise", *noise_key)
    return 1.0 + config.noise_amplitude * (2.0 * unit - 1.0)


def combine_core_cycles(
    stage_cycles: Sequence[float],
    switch_cycles: float,
    overhead_cycles: float,
    config: GpuConfig,
) -> float:
    """Combine stage cycles under the pipelined-bottleneck assumption.

    The slowest stage sets the floor; a fraction of the remaining stages'
    work fails to overlap (dependency stalls, drain/fill) and is added on
    top, as are per-draw fixed costs.
    """
    slowest = max(stage_cycles)
    residual = config.serial_fraction * (sum(stage_cycles) - slowest)
    return slowest + residual + switch_cycles + overhead_cycles


def combine_time_ns(
    core_cycles: float, dram_cycles_count: float, config: GpuConfig
) -> float:
    """Wall time of a draw given core-domain and memory-domain cycles.

    Core and memory mostly overlap; whichever domain is the bottleneck
    sets the base, and a residual fraction of the other fails to hide.
    """
    core_ns = 1e3 * core_cycles / config.core_clock_mhz
    mem_ns = 1e3 * dram_cycles_count / config.memory_clock_mhz
    return max(core_ns, mem_ns) + config.mem_overlap_residual * min(core_ns, mem_ns)


def draw_cost(
    draw: DrawCall,
    shader: ShaderProgram,
    textures: Sequence[TextureDesc],
    color_targets: Sequence[RenderTargetDesc],
    depth_target: Optional[RenderTargetDesc],
    config: GpuConfig,
    effects: TrackerEffects,
    noise_key: Tuple[object, ...],
) -> DrawCost:
    """Cost of one draw in a given execution context.

    ``textures``/``color_targets``/``depth_target`` must be the resolved
    descriptors for the draw's bound ids, in binding order.
    """
    vertex_cycles = shadercore.shader_stage_cycles(
        invocations=draw.total_vertices,
        alu_ops=shader.vertex.alu_ops,
        tex_ops=shader.vertex.tex_ops,
        branch_ops=shader.vertex.branch_ops,
        registers=shader.vertex.registers,
        config=config,
    )
    vertex_bytes = float(draw.total_vertices * draw.vertex_stride_bytes)
    fetch_cycles = memory.vertex_fetch_cycles(vertex_bytes, config)
    raster_cycles_count = raster.raster_cycles(
        primitive_count=draw.primitive_count,
        pixels_rasterized=draw.pixels_rasterized,
        cull=draw.state.cull,
        config=config,
    )
    pixel_cycles = shadercore.shader_stage_cycles(
        invocations=draw.pixels_shaded,
        alu_ops=shader.pixel.alu_ops,
        tex_ops=shader.pixel.tex_ops,
        branch_ops=shader.pixel.branch_ops,
        registers=shader.pixel.registers,
        config=config,
    )
    samples = draw.pixels_shaded * shader.pixel.tex_ops + (
        draw.total_vertices * shader.vertex.tex_ops
    )
    tex_cycles = texture.texture_cycles(samples, config)
    footprint = texture.texture_footprint_bytes(textures)
    sample_miss_rate = texture.miss_rate(footprint, effects.warm_fraction, config)
    tex_bytes = texture.texture_miss_bytes(
        samples, sample_miss_rate, footprint, config
    )
    rop_cycles_count = rop.rop_cycles(draw, len(color_targets), config)
    rt_bytes = rop.color_traffic_bytes(draw, color_targets)
    if depth_target is not None:
        rt_bytes += rop.depth_traffic_bytes(draw, depth_target, config)

    traffic = TrafficBreakdown(
        vertex_bytes=vertex_bytes, texture_bytes=tex_bytes, rt_bytes=rt_bytes
    )
    stage_cycles = (
        vertex_cycles,
        fetch_cycles,
        raster_cycles_count,
        pixel_cycles,
        tex_cycles,
        rop_cycles_count,
    )
    core_cycles = combine_core_cycles(
        stage_cycles, effects.switch_cycles, config.draw_overhead_cycles, config
    )
    core_cycles *= noise_multiplier(config, noise_key)
    dram_cycles_count = memory.dram_cycles(traffic, config)
    time_ns = combine_time_ns(core_cycles, dram_cycles_count, config)

    core_ns = 1e3 * core_cycles / config.core_clock_mhz
    mem_ns = 1e3 * dram_cycles_count / config.memory_clock_mhz
    if mem_ns > core_ns:
        bottleneck = "memory"
    else:
        bottleneck = STAGE_NAMES[stage_cycles.index(max(stage_cycles))]

    return DrawCost(
        vertex_cycles=vertex_cycles,
        fetch_cycles=fetch_cycles,
        raster_cycles=raster_cycles_count,
        pixel_cycles=pixel_cycles,
        texture_cycles=tex_cycles,
        rop_cycles=rop_cycles_count,
        switch_cycles=effects.switch_cycles,
        overhead_cycles=config.draw_overhead_cycles,
        core_cycles=core_cycles,
        traffic=traffic,
        dram_cycles=dram_cycles_count,
        time_ns=time_ns,
        bottleneck=bottleneck,
    )
