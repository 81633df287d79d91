"""Core-clock scaling of the cost model, on batched frame totals."""

import numpy as np
import pytest

from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator

CFG = GpuConfig()
CLOCKS = (500.0, 1000.0, 2000.0)
SWEEP = [CFG.with_core_clock(clock) for clock in CLOCKS]

#: Ideal (clock-ratio) speedup of each clock over the lowest.
IDEAL = np.asarray(CLOCKS) / CLOCKS[0]


class TestFrequencySweep:
    def test_time_decreases_with_clock(self, simple_trace):
        times = Runtime.serial().frame_times_many(simple_trace, SWEEP).sum(axis=1)
        assert times[0] > times[1] > times[2]

    def test_scaling_is_sublinear(self, simple_trace):
        # Memory-bound work doesn't speed up with core clock, so speedup
        # at 4x the clock must be below 4x.
        times = Runtime.serial().frame_times_many(simple_trace, SWEEP).sum(axis=1)
        assert times[0] / times[-1] < IDEAL[-1]

    def test_efficiency_monotonically_decreasing(self, simple_trace):
        times = Runtime.serial().frame_times_many(simple_trace, SWEEP).sum(axis=1)
        eff = (times[0] / times) / IDEAL
        assert eff[0] >= eff[1] >= eff[2]

    def test_batch_and_sequential_agree(self, simple_trace):
        times = Runtime.serial().frame_times_many(simple_trace, SWEEP).sum(axis=1)
        for config, a in zip(SWEEP, times):
            b = GpuSimulator(config).simulate_trace(simple_trace).total_time_ns
            assert a == pytest.approx(b, rel=1e-9)
