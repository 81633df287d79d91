"""Architecture-pathfinding sweeps: the methodology's end use.

Pathfinding asks "which of these candidate architectures is best for
this workload?".  A subset earns its keep when evaluating candidates on
the subset produces the same ranking (and near-identical relative
performance) as evaluating them on the full workload — at a fraction of
the simulation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.subsetting import WorkloadSubset
from repro.errors import ValidationError
from repro.gfx.trace import Trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.util.stats import spearman_correlation, sum_in_order


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
    *,
    runtime: Runtime,
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
    with runtime.tracer.span(
        "sweep", category="sweep", trace=trace.name, candidates=len(candidates)
    ):
        parent_times, subset_times = parent_and_subset_times(
            trace, subset, candidates, runtime, "sweep"
        )
    return PathfindingResult(
        trace_name=trace.name,
        config_names=tuple(names),
        parent_times_ns=parent_times,
        subset_estimated_times_ns=subset_times,
    )


def parent_and_subset_times(
    trace: Trace,
    subset: WorkloadSubset,
    configs: Sequence[GpuConfig],
    runtime: Runtime,
    label: str,
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Price ``subset`` against its parent ``trace`` on every config.

    Returns each config's parent total (its frame times summed in order)
    and its subset estimate (:meth:`WorkloadSubset.estimate_total_time_ns`
    of the kept frames' times).  Both sides are frame totals from
    :meth:`Runtime.frame_times_many`, under the stages
    ``<label>.parent`` and ``<label>.subset``.
    """
    subset_trace = subset.materialize(trace)
    parent_runs = runtime.frame_times_many(trace, configs, label=f"{label}.parent")
    subset_runs = runtime.frame_times_many(
        subset_trace, configs, label=f"{label}.subset"
    )
    return (
        tuple(sum_in_order(frame_times) for frame_times in parent_runs),
        tuple(subset.estimate_total_time_ns(frame_times) for frame_times in subset_runs),
    )
