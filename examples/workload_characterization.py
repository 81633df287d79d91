#!/usr/bin/env python
"""Characterize the BioShock-like series on one architecture.

Prints, per game: where frame time goes (per render pass), which
pipeline stage bottlenecks the draws, and the memory-traffic mix —
the IISWC-style characterization that motivates why draw-calls form
performance-similar groups in the first place.

Run:
    python examples/workload_characterization.py
"""

from repro import datasets
from repro.analysis.characterize import characterize_trace
from repro.simgpu.config import GpuConfig


def main() -> None:
    config = GpuConfig.preset("mainstream")
    for game in datasets.available():
        trace = datasets.load(game, frames=24, scale=0.15)
        profile = characterize_trace(trace, config)
        print(profile.report())
        print()
        print("=" * 64)
        print()


if __name__ == "__main__":
    main()
