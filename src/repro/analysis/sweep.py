"""Architecture-pathfinding sweeps: the methodology's end use.

Pathfinding asks "which of these candidate architectures is best for
this workload?".  A subset earns its keep when evaluating candidates on
the subset produces the same ranking (and near-identical relative
performance) as evaluating them on the full workload — at a fraction of
the simulation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.subsetting import WorkloadSubset
from repro.errors import ValidationError
from repro.gfx.trace import Trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.util.stats import pearson_correlation, spearman_correlation, sum_in_order


@dataclass(frozen=True)
class PathfindingResult:
    """Candidate evaluation on parent vs subset."""

    trace_name: str
    config_names: Tuple[str, ...]
    parent_times_ns: Tuple[float, ...]
    subset_estimated_times_ns: Tuple[float, ...]

    def parent_ranking(self) -> Tuple[str, ...]:
        """Config names from fastest to slowest on the full workload."""
        order = sorted(
            range(len(self.config_names)), key=lambda i: self.parent_times_ns[i]
        )
        return tuple(self.config_names[i] for i in order)

    def subset_ranking(self) -> Tuple[str, ...]:
        order = sorted(
            range(len(self.config_names)),
            key=lambda i: self.subset_estimated_times_ns[i],
        )
        return tuple(self.config_names[i] for i in order)

    @property
    def ranking_agreement(self) -> float:
        """Spearman rank correlation of candidate orderings (1.0 = same)."""
        return spearman_correlation(
            self.parent_times_ns, self.subset_estimated_times_ns
        )

    @property
    def time_correlation(self) -> float:
        """Pearson r of absolute candidate times."""
        return pearson_correlation(
            self.parent_times_ns, self.subset_estimated_times_ns
        )

    def winner_agrees(self) -> bool:
        return self.parent_ranking()[0] == self.subset_ranking()[0]


def default_candidates() -> Tuple[GpuConfig, ...]:
    """A small pathfinding design space around the presets."""
    mainstream = GpuConfig.preset("mainstream")
    return (
        GpuConfig.preset("lowpower"),
        mainstream,
        mainstream.scaled(name="mainstream+cores", num_shader_cores=12),
        mainstream.scaled(
            name="mainstream+bw", dram_bytes_per_mem_cycle=96.0
        ),
        mainstream.scaled(
            name="mainstream+cache", tex_cache_kb=256, l2_cache_kb=4096
        ),
        GpuConfig.preset("highend"),
    )


def pathfinding_sweep(
    trace: Trace,
    subset: WorkloadSubset,
    candidates: Sequence[GpuConfig] = (),
    runtime: Optional[Runtime] = None,
) -> PathfindingResult:
    """Evaluate candidate architectures on parent and subset.

    Only frame totals are simulated (:meth:`Runtime.frame_times_many`),
    and every (trace, candidate) point is one row of its trace's cached
    table, so an interrupted or repeated sweep only simulates the
    missing candidates.
    """
    candidates = tuple(candidates) or default_candidates()
    names = [c.name for c in candidates]
    if len(set(names)) != len(names):
        raise ValidationError(f"candidate names must be unique, got {names}")
    if runtime is None:
        runtime = Runtime.serial()
    with runtime.tracer.span(
        "sweep", category="sweep", trace=trace.name, candidates=len(candidates)
    ):
        subset_trace = subset.materialize(trace)
        parent_runs = runtime.frame_times_many(trace, candidates, label="sweep.parent")
        subset_runs = runtime.frame_times_many(
            subset_trace, candidates, label="sweep.subset"
        )
    parent_times = [sum_in_order(frame_times) for frame_times in parent_runs]
    subset_times = [
        subset.estimate_total_time_ns(frame_times) for frame_times in subset_runs
    ]
    return PathfindingResult(
        trace_name=trace.name,
        config_names=tuple(names),
        parent_times_ns=tuple(parent_times),
        subset_estimated_times_ns=tuple(subset_times),
    )
