#!/usr/bin/env python
"""Quickstart: generate a game trace, run the full subsetting methodology.

Generates a BioShock-1-like synthetic capture, runs the paper's pipeline
(per-frame draw-call clustering + shader-vector phase detection) against
the GPU performance model, and prints the evaluation report.

Run:
    python examples/quickstart.py

The pipeline takes a ``Runtime`` for parallel workers and an on-disk
artifact cache — the same machinery behind the CLI's ``--jobs`` /
``--cache-dir`` / ``--no-cache`` flags.  Re-run this script and the
cached ground truth makes the pipeline skip every frame simulation
(watch the ``[runtime]`` line at the bottom of the report).
"""

import tempfile
from pathlib import Path

from repro import datasets
from repro.core.pipeline import SubsettingPipeline
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig

CACHE_DIR = Path(tempfile.gettempdir()) / "repro-quickstart-cache"


def main() -> None:
    # A reduced-scale capture: 60 frames of menu/explore/combat gameplay.
    trace = datasets.load("bioshock1_like", frames=60, scale=0.25)
    stats = trace.stats()
    print(
        f"generated {trace.name}: {stats.num_frames} frames, "
        f"{stats.num_draws} draw-calls, {stats.num_shaders} shaders"
    )

    config = GpuConfig.preset("mainstream")
    pipeline = SubsettingPipeline()
    # Two worker processes plus a persistent artifact cache.  Results are
    # bit-identical to runtime=Runtime() (serial, uncached).
    runtime = Runtime(jobs=2, cache_dir=CACHE_DIR)
    result = pipeline.run(trace, config, runtime=runtime)

    print()
    print(result.report())
    print()
    print(
        "interpretation: simulating only "
        f"{100 * (1 - result.mean_efficiency):.0f}% of draw-calls predicts "
        f"frame time within {100 * result.mean_prediction_error:.2f}% on "
        "average, and the phase subset estimates total workload time within "
        f"{100 * result.subset_time_error:.2f}%."
    )


if __name__ == "__main__":
    main()
