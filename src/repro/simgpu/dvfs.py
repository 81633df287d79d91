"""Frequency-scaling (DVFS) sweeps.

The paper validates subsets by scaling GPU core frequency and checking
that the subset's performance-improvement curve tracks the parent's
(correlation coefficient >= 0.997).  This module runs the sweep for any
trace and packages the normalized improvement curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import SimulationError
from repro.gfx.trace import Trace
from repro.simgpu.config import GpuConfig

DEFAULT_CLOCKS_MHZ = (600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0)


@dataclass(frozen=True)
class FrequencySweepResult:
    """Trace performance across core clocks, normalized to the first clock."""

    trace_name: str
    base_config_name: str
    clocks_mhz: Tuple[float, ...]
    total_times_ns: Tuple[float, ...]

    @property
    def speedups(self) -> Tuple[float, ...]:
        """Performance improvement relative to the lowest clock."""
        base = self.total_times_ns[0]
        return tuple(base / t for t in self.total_times_ns)

    @property
    def improvements_percent(self) -> Tuple[float, ...]:
        """Speedup expressed as percent improvement over the base clock."""
        return tuple(100.0 * (s - 1.0) for s in self.speedups)

    @property
    def scaling_efficiency(self) -> Tuple[float, ...]:
        """Achieved speedup divided by ideal (clock-ratio) speedup.

        1.0 means perfectly compute-bound; the shortfall is the memory-
        bound fraction the paper's experiment exposes.
        """
        base_clock = self.clocks_mhz[0]
        return tuple(
            speedup / (clock / base_clock)
            for speedup, clock in zip(self.speedups, self.clocks_mhz)
        )


def frequency_sweep(
    trace: Trace,
    base_config: GpuConfig,
    clocks_mhz: Sequence[float] = DEFAULT_CLOCKS_MHZ,
    domain: str = "core",
) -> FrequencySweepResult:
    """Simulate ``trace`` at each clock point and collect total times.

    ``domain`` selects which clock is swept: ``"core"`` (the paper's
    experiment) or ``"memory"`` (the complementary sweep, exposing how
    memory-bound the workload is).
    """
    if domain not in ("core", "memory"):
        raise SimulationError(f"domain must be 'core' or 'memory', got {domain!r}")
    if len(clocks_mhz) < 2:
        raise SimulationError("a frequency sweep needs at least two clock points")
    if sorted(clocks_mhz) != list(clocks_mhz):
        raise SimulationError("clocks_mhz must be sorted ascending")
    if domain == "core":
        configs = [base_config.with_core_clock(clock) for clock in clocks_mhz]
    else:
        configs = [base_config.with_memory_clock(clock) for clock in clocks_mhz]
    from repro.simgpu.batch import simulate_trace_multi

    # Config-vectorized: the trace's precompute and context arrays are
    # shared across every clock point (capacities and switch costs are
    # clock-independent), so the whole sweep is one pass.
    times = [result.total_time_ns for result in simulate_trace_multi(trace, configs)]
    return FrequencySweepResult(
        trace_name=trace.name,
        base_config_name=base_config.name,
        clocks_mhz=tuple(clocks_mhz),
        total_times_ns=tuple(times),
    )
