"""Workload-subset extraction: phases -> representative frames -> subset.

A :class:`WorkloadSubset` keeps one representative interval per detected
phase, weighted by how many frames that phase covers in the parent.
Simulating only the subset and scaling by the weights estimates the
parent's total time — on any architecture configuration, which is the
whole point for pathfinding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phasedetect import PhaseDetection, detect_phases
from repro.errors import SubsetError
from repro.gfx.trace import Trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig


@dataclass(frozen=True)
class WorkloadSubset:
    """A weighted frame subset of a parent trace.

    Built by phase detection (``method='phase'``, with ``detection`` set)
    or by one of the frame-level baselines in :mod:`repro.baselines`.
    """

    parent_name: str
    detection: Optional[PhaseDetection]
    frame_positions: Tuple[int, ...]  # positions kept, ascending
    frame_weights: Tuple[float, ...]  # parent frames each kept frame stands for
    parent_num_frames: int
    parent_num_draws: int
    subset_num_draws: int
    method: str = "phase"

    @property
    def num_frames(self) -> int:
        return len(self.frame_positions)

    @property
    def frame_fraction(self) -> float:
        """Kept frames / parent frames."""
        return self.num_frames / self.parent_num_frames

    @property
    def draw_fraction(self) -> float:
        """Kept draws / parent draws (the paper's '< 1%' is measured after
        also clustering within the kept frames; see the pipeline)."""
        return self.subset_num_draws / self.parent_num_draws

    def weights_check(self) -> None:
        """Weights must re-cover exactly the parent's frame count."""
        total = sum(self.frame_weights)
        if abs(total - self.parent_num_frames) > 1e-6 * self.parent_num_frames:
            raise SubsetError(
                f"subset weights sum to {total}, parent has "
                f"{self.parent_num_frames} frames"
            )

    def materialize(self, parent: Trace) -> Trace:
        """Build the subset trace (kept frames, shared tables)."""
        if parent.name != self.parent_name:
            raise SubsetError(
                f"subset was built from {self.parent_name!r}, got trace "
                f"{parent.name!r}"
            )
        return parent.subset_frames(list(self.frame_positions))

    def estimate_total_time_ns(self, subset_frame_times_ns: Sequence[float]) -> float:
        """Weighted estimate of the parent's total time.

        ``subset_frame_times_ns`` are the simulated times of the kept
        frames, in :attr:`frame_positions` order.
        """
        times = np.asarray(subset_frame_times_ns, dtype=float)
        if times.shape[0] != self.num_frames:
            raise SubsetError(
                f"expected {self.num_frames} frame times, got {times.shape[0]}"
            )
        return float(times @ np.asarray(self.frame_weights))

    def estimate_on_config(
        self, parent: Trace, config: GpuConfig, runtime: Runtime
    ) -> float:
        """Simulate only the subset on ``config`` and estimate parent time."""
        frame_times = runtime.frame_times_many(self.materialize(parent), [config])
        return self.estimate_total_time_ns(frame_times[0])


@dataclass(frozen=True)
class CombinedSubset:
    """The composed deliverable: phase frames x cluster representatives.

    This is the artifact the paper ships to architects — under 1% of the
    parent at scale.  ``rep_trace`` holds only the kept frames' cluster
    representatives; estimating the parent's total time means simulating
    ``rep_trace`` and applying two weight levels: cluster populations
    within each frame, then phase weights across frames.

    Unlike the frame-level :class:`WorkloadSubset` (whole frames, no
    intra-frame reduction, context-exact), simulating representatives in
    isolation re-creates their context from the reduced sequence, so the
    estimate carries the cold-context bias measured by the pipeline's
    isolated-resim metric.
    """

    parent_name: str
    rep_trace: Trace
    frame_weights: Tuple[float, ...]  # one per kept frame, in rep_trace order
    draw_weights: Tuple[Tuple[int, ...], ...]  # cluster sizes, sorted-rep order
    parent_num_frames: int
    parent_num_draws: int

    @property
    def num_frames(self) -> int:
        return self.rep_trace.num_frames

    @property
    def num_draws(self) -> int:
        return self.rep_trace.num_draws

    @property
    def draw_fraction(self) -> float:
        """Simulated draws / parent draws (the paper's '< 1%' at scale)."""
        return self.num_draws / self.parent_num_draws

    def estimate_on_config(self, config: GpuConfig, runtime: Runtime) -> float:
        """Simulate only the representatives and estimate parent total time."""
        outputs = runtime.simulate_frames(self.rep_trace, config)
        total = 0.0
        for output, weights, frame_weight in zip(
            outputs, self.draw_weights, self.frame_weights
        ):
            frame_estimate = float(
                output.draw_times_ns @ np.asarray(weights, dtype=float)
            )
            total += frame_estimate * frame_weight
        return total


def build_combined_subset(
    trace: Trace,
    subset: WorkloadSubset,
    clusterings: Sequence,
) -> CombinedSubset:
    """Compose a frame subset with per-frame clusterings.

    ``clusterings`` must cover every frame of ``trace`` (one
    :class:`~repro.core.cluster_frame.FrameClustering` per frame, e.g.
    from ``SubsettingPipeline.cluster_all_frames``); only the subset's
    kept positions are used.
    """
    if subset.parent_name != trace.name:
        raise SubsetError(
            f"subset was built from {subset.parent_name!r}, got trace "
            f"{trace.name!r}"
        )
    if len(clusterings) != trace.num_frames:
        raise SubsetError(
            f"{len(clusterings)} clusterings for {trace.num_frames} frames"
        )
    rep_frames = []
    draw_weights = []
    for position in subset.frame_positions:
        frame = trace.frames[position]
        clustering = clusterings[position]
        if clustering.num_draws != frame.num_draws:
            raise SubsetError(
                f"clustering at position {position} covers "
                f"{clustering.num_draws} draws, frame has {frame.num_draws}"
            )
        order = np.sort(clustering.representatives)
        weight_of = {
            int(rep): int(weight)
            for rep, weight in zip(clustering.representatives, clustering.weights)
        }
        draw_weights.append(tuple(weight_of[int(i)] for i in order))
        rep_frames.append(frame.take(order))
    return CombinedSubset(
        parent_name=trace.name,
        rep_trace=trace.with_frames("combined", rep_frames),
        frame_weights=subset.frame_weights,
        draw_weights=tuple(draw_weights),
        parent_num_frames=trace.num_frames,
        parent_num_draws=trace.num_draws,
    )


def build_subset(
    trace: Trace, detection: Optional[PhaseDetection] = None, **detect_kwargs
) -> WorkloadSubset:
    """Extract the phase-representative subset of ``trace``.

    Keeps the first-occurrence interval of each phase; each kept frame's
    weight is ``phase_total_frames / representative_interval_frames``, so
    the weights sum back to the parent's frame count.
    """
    if detection is None:
        detection = detect_phases(trace, **detect_kwargs)
    elif detect_kwargs:
        raise SubsetError("pass either a detection or detect kwargs, not both")
    if detection.trace_name != trace.name:
        raise SubsetError(
            f"detection was computed on {detection.trace_name!r}, got trace "
            f"{trace.name!r}"
        )

    reps = detection.representative_intervals()
    phase_frames = detection.phase_frame_counts()
    positions: List[int] = []
    weights: List[float] = []
    for phase in sorted(reps):
        interval = reps[phase]
        weight = phase_frames[phase] / interval.num_frames
        for position in range(interval.start, interval.end):
            positions.append(position)
            weights.append(weight)
    order = np.argsort(positions)
    positions_sorted = [positions[i] for i in order]
    weights_sorted = [weights[i] for i in order]

    subset_draws = sum(trace.frames[p].num_draws for p in positions_sorted)
    subset = WorkloadSubset(
        parent_name=trace.name,
        detection=detection,
        frame_positions=tuple(positions_sorted),
        frame_weights=tuple(weights_sorted),
        parent_num_frames=trace.num_frames,
        parent_num_draws=trace.num_draws,
        subset_num_draws=subset_draws,
    )
    subset.weights_check()
    return subset
