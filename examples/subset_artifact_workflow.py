#!/usr/bin/env python
"""The subset-as-artifact workflow a pathfinding team would run.

1. Extract a subset from a capture (once).
2. Save the subset definition as a small JSON artifact.
3. Later / elsewhere: load the definition, check it against the trace,
   validate it (frequency scaling, cross-architecture transfer, ranking),
   and use it to evaluate candidate architectures cheaply.

Run:
    python examples/subset_artifact_workflow.py
"""

import tempfile
from pathlib import Path

from repro import datasets
from repro.analysis.validation import validate_subset
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetio import check_subset_against, load_subset, save_subset
from repro.runtime import Runtime
from repro.simgpu import GpuConfig


def main() -> None:
    config = GpuConfig.preset("mainstream")
    trace = datasets.load("bioshock2_like", frames=96, scale=0.2)
    runtime = Runtime()

    # --- extraction (the expensive one-off) -------------------------------
    result = SubsettingPipeline().run(trace, config, runtime=runtime)
    print(
        f"extracted subset: {result.subset.num_frames}/{trace.num_frames} "
        f"frames ({100 * result.subset.frame_fraction:.1f}%), combined with "
        f"clustering -> {100 * result.combined_draw_fraction:.1f}% of draws"
    )

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "bioshock2.subset.json"
        save_subset(result.subset, artifact)
        print(f"saved definition: {artifact.name} ({artifact.stat().st_size} bytes)")

        # --- consumption (months later, different machine) ----------------
        subset = load_subset(artifact)
        check_subset_against(subset, trace)  # guards against wrong capture
        validation = validate_subset(
            trace, subset, config, clocks_mhz=(600.0, 1000.0, 1400.0),
            runtime=runtime,
        )
        print()
        print(validation.report())
        print()

        for preset in ("lowpower", "highend"):
            candidate = GpuConfig.preset(preset)
            estimate_ms = subset.estimate_on_config(trace, candidate, runtime) / 1e6
            print(
                f"candidate {preset:10s}: estimated total "
                f"{estimate_ms:9.2f} ms from the subset alone"
            )


if __name__ == "__main__":
    main()
