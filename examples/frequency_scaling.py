#!/usr/bin/env python
"""Validate a subset with frequency scaling (the paper's E6 experiment).

Sweeps the GPU core clock on a parent workload and on its extracted
subset, and correlates the two performance-improvement curves.  The
paper reports r >= 0.997; the reproduction typically exceeds 0.999.

Run:
    python examples/frequency_scaling.py
"""

from repro import datasets
from repro.analysis.correlation import subset_parent_correlation
from repro.core.subsetting import build_subset
from repro.runtime import Runtime
from repro.simgpu import GpuConfig
from repro.util.tables import format_table

CLOCKS_MHZ = (600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0)


def main() -> None:
    config = GpuConfig.preset("mainstream")
    runtime = Runtime()
    rows = []
    for game in datasets.available():
        trace = datasets.load(game, frames=96, scale=0.2)
        subset = build_subset(trace)
        result = subset_parent_correlation(
            trace, subset, config, CLOCKS_MHZ, runtime=runtime
        )
        rows.append(
            [
                game,
                f"{subset.num_frames}/{trace.num_frames}",
                result.correlation,
                result.max_improvement_gap_points,
            ]
        )
        print(f"{game}:")
        print(f"  clocks (MHz):        {[int(c) for c in CLOCKS_MHZ[1:]]}")
        print(
            "  parent improvement %:",
            [round(v, 1) for v in result.parent_improvements_percent],
        )
        print(
            "  subset improvement %:",
            [round(v, 1) for v in result.subset_improvements_percent],
        )
    print()
    print(
        format_table(
            ["game", "subset frames", "correlation r", "max gap (pts)"],
            rows,
            title="Frequency-scaling validation (paper: r >= 0.997)",
            precision=5,
        )
    )


if __name__ == "__main__":
    main()
