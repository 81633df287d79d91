"""Tests for frequency sweeps."""

import pytest

from repro.errors import SimulationError
from repro.simgpu.config import GpuConfig
from repro.simgpu.dvfs import frequency_sweep
from repro.simgpu.simulator import GpuSimulator

CFG = GpuConfig()
CLOCKS = (500.0, 1000.0, 2000.0)


class TestFrequencySweep:
    def test_time_decreases_with_clock(self, simple_trace):
        sweep = frequency_sweep(simple_trace, CFG, CLOCKS)
        times = sweep.total_times_ns
        assert times[0] > times[1] > times[2]

    def test_speedups_normalized_to_base(self, simple_trace):
        sweep = frequency_sweep(simple_trace, CFG, CLOCKS)
        assert sweep.speedups[0] == pytest.approx(1.0)
        assert all(s >= 1.0 for s in sweep.speedups)

    def test_scaling_is_sublinear(self, simple_trace):
        # Memory-bound work doesn't speed up with core clock, so speedup
        # at 4x the clock must be below 4x.
        sweep = frequency_sweep(simple_trace, CFG, CLOCKS)
        assert sweep.speedups[-1] < CLOCKS[-1] / CLOCKS[0]
        assert sweep.scaling_efficiency[0] == pytest.approx(1.0)
        assert sweep.scaling_efficiency[-1] < 1.0

    def test_efficiency_monotonically_decreasing(self, simple_trace):
        sweep = frequency_sweep(simple_trace, CFG, CLOCKS)
        eff = sweep.scaling_efficiency
        assert eff[0] >= eff[1] >= eff[2]

    def test_batch_and_sequential_agree(self, simple_trace):
        fast = frequency_sweep(simple_trace, CFG, CLOCKS)
        for clock, a in zip(CLOCKS, fast.total_times_ns):
            config = CFG.with_core_clock(clock)
            b = GpuSimulator(config).simulate_trace(simple_trace).total_time_ns
            assert a == pytest.approx(b, rel=1e-9)

    def test_improvements_percent(self, simple_trace):
        sweep = frequency_sweep(simple_trace, CFG, CLOCKS)
        assert sweep.improvements_percent[0] == pytest.approx(0.0)
        assert sweep.improvements_percent[-1] > 0

    def test_single_point_rejected(self, simple_trace):
        with pytest.raises(SimulationError, match="two clock"):
            frequency_sweep(simple_trace, CFG, (1000.0,))

    def test_unsorted_clocks_rejected(self, simple_trace):
        with pytest.raises(SimulationError, match="sorted"):
            frequency_sweep(simple_trace, CFG, (1000.0, 500.0))
