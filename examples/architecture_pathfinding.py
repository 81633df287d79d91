#!/usr/bin/env python
"""Architecture pathfinding on a subset — the paper's motivating use case.

Evaluates six candidate GPU architectures two ways: by simulating the
full workload (expensive) and by simulating only the extracted subset
(cheap), then compares the candidate rankings.  A good subset picks the
same winner and preserves relative performance.

Run:
    python examples/architecture_pathfinding.py
"""

from repro import datasets
from repro.analysis.sweep import default_candidates, pathfinding_sweep
from repro.core.subsetting import build_subset
from repro.runtime import Runtime
from repro.util.tables import format_table


def main() -> None:
    trace = datasets.load("bioshock_infinite_like", frames=96, scale=0.2)
    subset = build_subset(trace)
    print(
        f"workload: {trace.num_frames} frames / {trace.num_draws} draws; "
        f"subset keeps {subset.num_frames} frames "
        f"({100 * subset.frame_fraction:.1f}%)"
    )

    result = pathfinding_sweep(
        trace, subset, default_candidates(), runtime=Runtime()
    )

    rows = []
    parent_base = max(result.parent_times_ns)
    for name, parent_ns, subset_ns in zip(
        result.config_names,
        result.parent_times_ns,
        result.subset_estimated_times_ns,
    ):
        rows.append(
            [
                name,
                parent_ns / 1e6,
                subset_ns / 1e6,
                parent_base / parent_ns,
                100.0 * abs(subset_ns - parent_ns) / parent_ns,
            ]
        )
    print()
    print(
        format_table(
            ["candidate", "full ms", "subset-est ms", "speedup", "est err %"],
            rows,
            title="Candidate evaluation: full workload vs subset",
            precision=2,
        )
    )
    print()
    print(f"full-workload ranking:   {' > '.join(result.parent_ranking())}")
    print(f"subset-based ranking:    {' > '.join(result.subset_ranking())}")
    print(f"ranking agreement (spearman): {result.ranking_agreement:.4f}")
    print(f"winner agrees: {result.winner_agrees()}")


if __name__ == "__main__":
    main()
