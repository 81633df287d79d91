"""GPU architecture configuration.

A :class:`GpuConfig` pins every throughput, capacity, and penalty the cost
model uses.  Named presets span the pathfinding design space the paper
targets (low-power through high-end); :meth:`GpuConfig.with_core_clock`
produces the DVFS points for the frequency-scaling experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.util.validation import check_fraction, check_positive, check_type

_INF = float("inf")


@dataclass(frozen=True)
class GpuConfig:
    """A point in the GPU architecture design space.

    Clock rates are in MHz; capacities in KiB; throughputs in units per
    clock cycle of the relevant domain (core or memory).
    """

    name: str = "mainstream"

    # Shader array
    num_shader_cores: int = 8
    simd_width: int = 32
    core_clock_mhz: float = 1000.0
    max_full_occupancy_registers: int = 32

    # Fixed function
    raster_prims_per_cycle: float = 2.0
    raster_pixels_per_cycle: float = 64.0
    rop_units: int = 4
    rop_pixels_per_cycle: float = 4.0
    vertex_fetch_bytes_per_cycle: float = 64.0

    # Texture subsystem
    tex_units_per_core: int = 4
    tex_rate_per_unit: float = 1.0
    tex_cache_kb: int = 128
    l2_cache_kb: int = 2048
    cacheline_bytes: int = 64

    # Memory system
    memory_clock_mhz: float = 1600.0
    dram_bytes_per_mem_cycle: float = 64.0
    l2_hit_tex: float = 0.45
    l2_hit_rt: float = 0.35
    l2_hit_vertex: float = 0.25
    depth_compression: float = 0.5

    # Pipelining / overheads
    serial_fraction: float = 0.12
    mem_overlap_residual: float = 0.25
    draw_overhead_cycles: float = 150.0
    shader_switch_cycles: float = 200.0
    state_switch_cycles: float = 80.0
    rt_switch_cycles: float = 1000.0

    # Unmodeled micro-architecture variance (deterministic, per draw slot)
    noise_amplitude: float = 0.02

    def __post_init__(self) -> None:
        check_type("GpuConfig.name", self.name, str)
        if not self.name:
            raise ConfigError("GpuConfig.name must be non-empty")
        # A sweep builds hundreds of configs, so a plainly valid value (a
        # positive int, a float in range) skips the checks; any other value
        # still goes through them, so they alone decide what is rejected.
        for field_name in (
            "num_shader_cores",
            "simd_width",
            "max_full_occupancy_registers",
            "rop_units",
            "tex_units_per_core",
            "tex_cache_kb",
            "l2_cache_kb",
            "cacheline_bytes",
        ):
            value = getattr(self, field_name)
            if type(value) is not int or value <= 0:
                check_type(f"GpuConfig.{field_name}", value, int)
                check_positive(f"GpuConfig.{field_name}", value)
        for field_name in (
            "core_clock_mhz",
            "memory_clock_mhz",
            "raster_prims_per_cycle",
            "raster_pixels_per_cycle",
            "rop_pixels_per_cycle",
            "vertex_fetch_bytes_per_cycle",
            "tex_rate_per_unit",
            "dram_bytes_per_mem_cycle",
        ):
            value = getattr(self, field_name)
            if type(value) is not float or not 0.0 < value < _INF:
                check_positive(f"GpuConfig.{field_name}", value)
        for field_name in (
            "l2_hit_tex",
            "l2_hit_rt",
            "l2_hit_vertex",
            "depth_compression",
            "serial_fraction",
            "mem_overlap_residual",
            "noise_amplitude",
        ):
            value = getattr(self, field_name)
            if type(value) is not float or not 0.0 <= value <= 1.0:
                check_fraction(f"GpuConfig.{field_name}", value)
        for field_name in (
            "draw_overhead_cycles",
            "shader_switch_cycles",
            "state_switch_cycles",
            "rt_switch_cycles",
        ):
            value = getattr(self, field_name)
            if value < 0:
                raise ConfigError(f"GpuConfig.{field_name} must be >= 0, got {value}")

    # -- derived quantities ------------------------------------------------

    @property
    def alu_lanes(self) -> int:
        """Total SIMD lanes across the shader array."""
        return self.num_shader_cores * self.simd_width

    @property
    def tex_units_total(self) -> int:
        return self.num_shader_cores * self.tex_units_per_core

    @property
    def rop_pixels_total_per_cycle(self) -> float:
        return self.rop_units * self.rop_pixels_per_cycle

    @property
    def dram_bandwidth_gbps(self) -> float:
        """Peak DRAM bandwidth in GB/s."""
        return self.memory_clock_mhz * 1e6 * self.dram_bytes_per_mem_cycle / 1e9

    @property
    def warm_capacity_bytes(self) -> int:
        """Bytes of texture working set that can stay resident (tex + L2)."""
        return (self.tex_cache_kb + self.l2_cache_kb) * 1024

    # -- variants ------------------------------------------------------------

    def with_core_clock(self, core_clock_mhz: float) -> "GpuConfig":
        """This configuration at a different core clock (DVFS point)."""
        check_positive("core_clock_mhz", core_clock_mhz)
        return self.scaled(
            core_clock_mhz=core_clock_mhz,
            name=f"{self.name}@{core_clock_mhz:g}MHz",
        )

    def with_memory_clock(self, memory_clock_mhz: float) -> "GpuConfig":
        """This configuration at a different memory clock."""
        check_positive("memory_clock_mhz", memory_clock_mhz)
        return self.scaled(
            memory_clock_mhz=memory_clock_mhz,
            name=f"{self.name}@mem{memory_clock_mhz:g}MHz",
        )

    def scaled(self, **overrides) -> "GpuConfig":
        """A variant with arbitrary field overrides (pathfinding sweeps)."""
        unknown = overrides.keys() - self.__dict__.keys()
        if unknown:
            raise ConfigError(
                f"unknown GpuConfig field in overrides: {', '.join(sorted(unknown))}"
            )
        # This config's fields plus the overrides, validated as the
        # constructor validates them, without the frozen __init__'s
        # per-field object.__setattr__ (twice the cost of validating; a
        # sweep builds hundreds of variants).
        variant = object.__new__(type(self))
        variant.__dict__.update(self.__dict__, **overrides)
        variant.__post_init__()
        return variant

    # -- presets -------------------------------------------------------------

    @classmethod
    def preset(cls, name: str) -> "GpuConfig":
        """A named architecture preset.

        ``lowpower``  — tablet/phone class (the paper's new-device motivation)
        ``mainstream`` — desktop midrange (default)
        ``highend``   — enthusiast discrete GPU
        """
        try:
            return _PRESETS[name]
        except KeyError:
            choices = ", ".join(sorted(_PRESETS))
            raise ConfigError(f"unknown preset {name!r}; choose from: {choices}") from None

    @classmethod
    def preset_names(cls) -> tuple:
        return tuple(sorted(_PRESETS))


_PRESETS = {
    "lowpower": GpuConfig(
        name="lowpower",
        num_shader_cores=2,
        simd_width=16,
        core_clock_mhz=600.0,
        memory_clock_mhz=800.0,
        dram_bytes_per_mem_cycle=32.0,
        tex_units_per_core=2,
        tex_cache_kb=64,
        l2_cache_kb=512,
        rop_units=2,
        raster_pixels_per_cycle=16.0,
    ),
    "mainstream": GpuConfig(name="mainstream"),
    "highend": GpuConfig(
        name="highend",
        num_shader_cores=24,
        simd_width=32,
        core_clock_mhz=1200.0,
        memory_clock_mhz=2000.0,
        dram_bytes_per_mem_cycle=128.0,
        tex_units_per_core=4,
        tex_cache_kb=256,
        l2_cache_kb=4096,
        rop_units=8,
        raster_prims_per_cycle=4.0,
        raster_pixels_per_cycle=128.0,
    ),
}
