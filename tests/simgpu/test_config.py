"""Tests for GpuConfig validation, presets, and variants."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError, ValidationError
from repro.runtime.keys import config_digest
from repro.simgpu.config import GpuConfig


class TestValidation:
    def test_default_is_valid(self):
        GpuConfig()

    def test_zero_cores_rejected(self):
        with pytest.raises(ValidationError):
            GpuConfig(num_shader_cores=0)

    def test_negative_clock_rejected(self):
        with pytest.raises(ValidationError):
            GpuConfig(core_clock_mhz=-1.0)

    def test_fraction_fields_bounded(self):
        with pytest.raises(ValidationError):
            GpuConfig(l2_hit_tex=1.5)
        with pytest.raises(ValidationError):
            GpuConfig(serial_fraction=-0.1)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            GpuConfig(name="")

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigError):
            GpuConfig(draw_overhead_cycles=-1.0)

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("num_shader_cores", True),
            ("num_shader_cores", 8.0),
            ("core_clock_mhz", float("nan")),
            ("core_clock_mhz", float("inf")),
            ("core_clock_mhz", "1000"),
            ("l2_hit_tex", float("nan")),
            ("l2_hit_tex", False),
        ],
    )
    def test_ill_typed_and_non_finite_rejected(self, field_name, value):
        with pytest.raises(ValidationError, match=field_name):
            GpuConfig(**{field_name: value})
        with pytest.raises(ValidationError, match=field_name):
            GpuConfig().scaled(**{field_name: value})

    def test_int_rates_and_fractions_accepted(self):
        cfg = GpuConfig(core_clock_mhz=800, l2_hit_tex=1, serial_fraction=0)
        assert (cfg.core_clock_mhz, cfg.l2_hit_tex, cfg.serial_fraction) == (800, 1, 0)


class TestDerived:
    def test_alu_lanes(self):
        cfg = GpuConfig(num_shader_cores=8, simd_width=32)
        assert cfg.alu_lanes == 256

    def test_dram_bandwidth(self):
        cfg = GpuConfig(memory_clock_mhz=1000.0, dram_bytes_per_mem_cycle=64.0)
        assert cfg.dram_bandwidth_gbps == pytest.approx(64.0)

    def test_warm_capacity(self):
        cfg = GpuConfig(tex_cache_kb=128, l2_cache_kb=1024)
        assert cfg.warm_capacity_bytes == (128 + 1024) * 1024


class TestPresets:
    def test_all_presets_valid(self):
        for name in GpuConfig.preset_names():
            cfg = GpuConfig.preset(name)
            assert cfg.name == name

    def test_presets_ordered_by_capability(self):
        low = GpuConfig.preset("lowpower")
        mid = GpuConfig.preset("mainstream")
        high = GpuConfig.preset("highend")
        assert low.alu_lanes < mid.alu_lanes < high.alu_lanes
        assert low.dram_bandwidth_gbps < mid.dram_bandwidth_gbps
        assert mid.dram_bandwidth_gbps < high.dram_bandwidth_gbps

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ConfigError, match="lowpower"):
            GpuConfig.preset("turbo9000")


class TestVariants:
    def test_with_core_clock(self):
        base = GpuConfig.preset("mainstream")
        fast = base.with_core_clock(1500.0)
        assert fast.core_clock_mhz == 1500.0
        assert fast.memory_clock_mhz == base.memory_clock_mhz
        assert "1500" in fast.name

    def test_with_memory_clock(self):
        base = GpuConfig.preset("mainstream")
        variant = base.with_memory_clock(2400.0)
        assert variant.memory_clock_mhz == 2400.0
        assert variant.core_clock_mhz == base.core_clock_mhz

    def test_scaled_overrides(self):
        variant = GpuConfig().scaled(num_shader_cores=16)
        assert variant.num_shader_cores == 16

    def test_scaled_equals_the_constructor(self):
        base = GpuConfig.preset("lowpower")
        overrides = dict(name="c4-800MHz", num_shader_cores=4, core_clock_mhz=800.0)
        variant = base.scaled(**overrides)
        expected = dataclasses.replace(base, **overrides)
        assert variant == expected
        assert hash(variant) == hash(expected)
        assert config_digest(variant) == config_digest(expected)
        assert pickle.loads(pickle.dumps(variant)) == expected
        with pytest.raises(dataclasses.FrozenInstanceError):
            variant.num_shader_cores = 2

    def test_scaled_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown GpuConfig field"):
            GpuConfig().scaled(warp_drives=2)

    def test_scaled_still_validates(self):
        with pytest.raises(ValidationError):
            GpuConfig().scaled(num_shader_cores=-1)

    def test_original_unchanged(self):
        base = GpuConfig()
        base.with_core_clock(500.0)
        assert base.core_clock_mhz == 1000.0
