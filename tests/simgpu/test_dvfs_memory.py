"""Memory-clock scaling of the cost model, on batched frame totals."""

import numpy as np
import pytest

from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig

from tests.conftest import make_draw, make_world

CFG = GpuConfig.preset("mainstream")
CLOCKS = (800.0, 1600.0, 3200.0)
CORE_SWEEP = [CFG.with_core_clock(clock) for clock in CLOCKS]
MEMORY_SWEEP = [CFG.with_memory_clock(clock) for clock in CLOCKS]


@pytest.fixture(scope="module")
def heavy_fill_trace():
    """A bandwidth-hungry workload: huge blended fills."""
    from repro.gfx.state import TRANSPARENT_STATE

    draws = [
        make_draw(pixels=400000, shaded_fraction=1.0, state=TRANSPARENT_STATE)
        for _ in range(6)
    ]
    return make_world([draws])


class TestMemorySweep:
    def test_memory_clock_helps_bandwidth_bound(self, heavy_fill_trace):
        times = Runtime.serial().frame_times_many(heavy_fill_trace, MEMORY_SWEEP).sum(axis=1)
        assert times[0] / times[-1] > 1.05

    def test_domains_differ(self, heavy_fill_trace):
        core = Runtime.serial().frame_times_many(heavy_fill_trace, CORE_SWEEP).sum(axis=1)
        mem = Runtime.serial().frame_times_many(heavy_fill_trace, MEMORY_SWEEP).sum(axis=1)
        assert not np.array_equal(core, mem)

    def test_compute_bound_ignores_memory_clock(self):
        # Tiny texture traffic, big ALU load: memory clock barely matters.
        draws = [make_draw(vertex_count=200000, pixels=100, texture_ids=())
                 for _ in range(4)]
        trace = make_world([draws])
        times = Runtime.serial().frame_times_many(trace, MEMORY_SWEEP).sum(axis=1)
        assert times[0] / times[-1] < 1.4

    def test_monotone(self, heavy_fill_trace):
        times = Runtime.serial().frame_times_many(heavy_fill_trace, MEMORY_SWEEP).sum(axis=1)
        assert times[0] >= times[1] >= times[2]
