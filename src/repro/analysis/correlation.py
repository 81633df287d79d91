"""Frequency-scaling correlation: the paper's subset-validation method.

A subset is trustworthy for pathfinding when its response to an
architecture change tracks the parent's.  The paper scales GPU core
frequency and correlates the subset's performance-improvement curve with
the parent's, reporting r >= 0.997 for subsets under 1% of the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.sweep import parent_and_subset_times
from repro.core.subsetting import WorkloadSubset
from repro.gfx.trace import Trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.util.stats import pearson_correlation

#: Core clocks of the frequency-scaling sweep, lowest (the base) first.
DEFAULT_CLOCKS_MHZ = (600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0)


@dataclass(frozen=True)
class CorrelationResult:
    """Parent-vs-subset frequency-scaling curves and their correlation."""

    trace_name: str
    subset_method: str
    clocks_mhz: Tuple[float, ...]
    parent_times_ns: Tuple[float, ...]
    subset_estimated_times_ns: Tuple[float, ...]

    @staticmethod
    def _improvements(times: Sequence[float]) -> Tuple[float, ...]:
        base = times[0]
        return tuple(100.0 * (base / t - 1.0) for t in times[1:])

    @property
    def parent_improvements_percent(self) -> Tuple[float, ...]:
        return self._improvements(self.parent_times_ns)

    @property
    def subset_improvements_percent(self) -> Tuple[float, ...]:
        return self._improvements(self.subset_estimated_times_ns)

    @property
    def correlation(self) -> float:
        """Pearson r between the two improvement curves (paper: >= 0.997)."""
        return pearson_correlation(
            self.parent_improvements_percent, self.subset_improvements_percent
        )

    @property
    def max_improvement_gap_points(self) -> float:
        """Largest absolute gap between the curves, in percentage points."""
        return max(
            abs(a - b)
            for a, b in zip(
                self.parent_improvements_percent, self.subset_improvements_percent
            )
        )


def subset_parent_correlation(
    trace: Trace,
    subset: WorkloadSubset,
    base_config: GpuConfig,
    clocks_mhz: Sequence[float] = DEFAULT_CLOCKS_MHZ,
    *,
    runtime: Runtime,
) -> CorrelationResult:
    """Sweep core clocks on parent and subset; package both curves.

    The subset side simulates *only* the subset trace at each clock and
    scales by the subset weights — the exact reduced workflow a
    pathfinding team would run.  All clock points go through ``runtime``
    as one batch of frame totals, so workers share each frame's
    precompute and the artifact cache skips clocks simulated by an
    earlier run.
    """
    configs = [base_config.with_core_clock(clock) for clock in clocks_mhz]
    parent_times, subset_times = parent_and_subset_times(
        trace, subset, configs, runtime, "correlation"
    )
    return CorrelationResult(
        trace_name=trace.name,
        subset_method=subset.method,
        clocks_mhz=tuple(clocks_mhz),
        parent_times_ns=parent_times,
        subset_estimated_times_ns=subset_times,
    )
