"""Tests for cache keys (stability, sensitivity) and the artifact cache."""

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro
from repro.errors import ConfigError
from repro.obs.metrics import Metrics
from repro.runtime.cache import CACHE_DIR_ENV, CACHE_MISS, ArtifactCache, NullCache
from repro.runtime.keys import (
    config_digest,
    params_digest,
    task_key,
    trace_digest,
)
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile
from tests.simgpu.test_batch import config_strategy

SMALL = GameProfile.preset("bioshock1_like").scaled(0.05)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(SMALL, seed=23).generate(num_frames=4)


class TestDigests:
    def test_trace_digest_deterministic(self, trace):
        assert trace_digest(trace) == trace_digest(trace)

    def test_trace_digest_tracks_content(self, trace):
        other = TraceGenerator(SMALL, seed=24).generate(num_frames=4)
        assert trace_digest(trace) != trace_digest(other)

    def test_config_digest_ignores_name(self):
        a = GpuConfig.preset("mainstream")
        b = a.scaled(name="renamed")
        assert a.name != b.name
        assert config_digest(a) == config_digest(b)

    def test_config_digest_tracks_fields(self):
        a = GpuConfig.preset("mainstream")
        b = a.scaled(num_shader_cores=a.num_shader_cores + 1)
        assert config_digest(a) != config_digest(b)

    def test_params_digest_order_insensitive(self):
        assert params_digest({"a": 1, "b": 2}) == params_digest({"b": 2, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})

    def test_task_key_sensitivity(self, trace):
        config = GpuConfig.preset("mainstream")
        base = task_key("simulate_frames", trace=trace, config=config)
        assert base == task_key("simulate_frames", trace=trace, config=config)
        assert base != task_key("cluster_frames", trace=trace, config=config)
        assert base != task_key(
            "simulate_frames", trace=trace, config=GpuConfig.preset("highend")
        )

    def test_task_key_is_hex(self, trace):
        key = task_key("simulate_frames", trace=trace)
        assert set(key) <= set("0123456789abcdef")


def _asdict_config_digest(config):
    """The ``dataclasses.asdict`` recipe ``config_digest`` used to follow."""
    fields = dataclasses.asdict(config)
    fields.pop("name", None)
    canonical = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestConfigDigestRecipe:
    """The field-wise record digests exactly as the ``asdict`` one did."""

    @pytest.mark.parametrize("name", GpuConfig.preset_names())
    def test_presets(self, name):
        config = GpuConfig.preset(name)
        assert config_digest(config) == _asdict_config_digest(config)

    def test_sweep_grid(self):
        base = GpuConfig.preset("mainstream")
        grid = [
            base.scaled(
                name=f"c{cores}-tex{tex_kb}-bw{bandwidth}-{clock}MHz",
                num_shader_cores=cores,
                tex_cache_kb=tex_kb,
                dram_bytes_per_mem_cycle=float(bandwidth),
                core_clock_mhz=float(clock),
            )
            for cores in (4, 8, 12, 16)
            for tex_kb in (64, 128, 256, 512)
            for bandwidth in (32, 64, 96)
            for clock in (800, 1200, 1600)
        ]
        assert len({config_digest(config) for config in grid}) == 144
        assert [config_digest(c) for c in grid] == [_asdict_config_digest(c) for c in grid]

    @settings(max_examples=100, deadline=None)
    @given(config=config_strategy)
    def test_random_configs(self, config):
        assert config_digest(config) == _asdict_config_digest(config)


class TestKeyStabilityAcrossProcesses:
    def test_same_key_in_fresh_interpreter(self, trace):
        """Keys must not depend on interpreter state (hash seed, id())."""
        config = GpuConfig.preset("mainstream")
        local = task_key(
            "simulate_frames",
            trace=trace,
            config=config,
            params={"radius": 0.21},
        )
        script = textwrap.dedent(
            """
            from repro.runtime.keys import task_key
            from repro.simgpu.config import GpuConfig
            from repro.synth.generator import TraceGenerator
            from repro.synth.profiles import GameProfile

            profile = GameProfile.preset("bioshock1_like").scaled(0.05)
            trace = TraceGenerator(profile, seed=23).generate(num_frames=4)
            print(
                task_key(
                    "simulate_frames",
                    trace=trace,
                    config=GpuConfig.preset("mainstream"),
                    params={"radius": 0.21},
                )
            )
            """
        )
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_dir
        env["PYTHONHASHSEED"] = "random"
        remote = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert remote == local


class TestArtifactCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ab" * 32
        assert cache.get(key) is CACHE_MISS
        cache.put(key, {"nested": (1, 2.5, "x")})
        assert cache.get(key) == {"nested": (1, 2.5, "x")}
        assert key in cache

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ef" * 32
        cache.put(key, None)
        assert cache.get(key) is None

    def test_corrupted_entry_evicted_and_missed(self, tmp_path):
        metrics = Metrics()
        cache = ArtifactCache(tmp_path, metrics=metrics)
        key = "12" * 32
        cache.put(key, [1, 2, 3])
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.write_bytes(b"this is not a pickle")
        assert cache.get(key) is CACHE_MISS
        assert not path.exists()
        snapshot = metrics.snapshot()
        assert snapshot.counter_total("cache_corrupt_evicted") == 1
        # Recompute-and-put heals the entry.
        cache.put(key, [1, 2, 3])
        assert cache.get(key) == [1, 2, 3]

    def test_truncated_pickle_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "34" * 32
        cache.put(key, list(range(100)))
        path = tmp_path / key[:2] / f"{key}.pkl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(key) is CACHE_MISS

    def test_bad_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ConfigError, match="hex"):
            cache.get("../../etc/passwd")
        with pytest.raises(ConfigError, match="hex"):
            cache.put("UPPER", 1)

    def test_counters(self, tmp_path):
        metrics = Metrics()
        cache = ArtifactCache(tmp_path, metrics=metrics)
        key = "56" * 32
        cache.get(key)
        cache.put(key, 7)
        cache.get(key)
        snapshot = metrics.snapshot()
        assert snapshot.counter_total("cache_misses") == 1
        assert snapshot.counter_total("cache_puts") == 1
        assert snapshot.counter_total("cache_hits") == 1
        assert snapshot.histogram("cache_lookup_s").count == 2

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        cache = ArtifactCache()
        assert cache.cache_dir == tmp_path / "envcache"

    def test_null_cache(self):
        cache = NullCache()
        assert cache.get("ab" * 32) is CACHE_MISS
        cache.put("ab" * 32, 1)
        assert cache.get("ab" * 32) is CACHE_MISS

    def test_entries_shared_across_instances(self, tmp_path):
        first = ArtifactCache(tmp_path)
        key = "78" * 32
        first.put(key, {"x": 1})
        second = ArtifactCache(tmp_path)
        assert second.get(key) == {"x": 1}

    def test_value_survives_pickle_of_cache_contents(self, tmp_path):
        # Entries are plain files: another process reading the same dir
        # must be able to unpickle them with no cache object involved.
        cache = ArtifactCache(tmp_path)
        key = "9a" * 32
        cache.put(key, ("tuple", 1))
        raw = (tmp_path / key[:2] / f"{key}.pkl").read_bytes()
        assert pickle.loads(raw) == ("tuple", 1)
