"""End-to-end subsetting pipeline: the paper's full methodology on one trace.

Given a trace and a GPU configuration:

1. simulate the full trace for ground truth (the expensive run the
   methodology exists to avoid — here it doubles as the referee);
2. cluster every frame's draws on micro-architecture-independent
   features, pick representatives, simulate *only* them, and predict
   each frame's time (E1), scoring efficiency and cluster outliers (E2);
3. detect phases from shader vectors and extract the phase-representative
   frame subset (E4, E5);
4. compose both reductions into the final subset size and a subset-based
   estimate of total trace time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cluster_frame import DEFAULT_RADIUS, FrameClustering
from repro.core.metrics import cluster_quality
from repro.core.phasedetect import (
    DEFAULT_INTERVAL_LENGTH,
    DEFAULT_TOLERANCE,
    PhaseDetection,
    detect_phases,
)
from repro.core.predict import (
    FramePrediction,
    predict_time_ns,
    rep_times_from_draw_times,
)
from repro.core.subsetting import WorkloadSubset, build_subset
from repro.errors import SubsetError
from repro.gfx.trace import Trace
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.engine import Runtime, summary_line
from repro.simgpu.batch import BatchFrameOutput
from repro.simgpu.config import GpuConfig
from repro.util.stats import sum_in_order
from repro.util.tables import format_table


def score_frame(
    clustering: FrameClustering,
    truth: BatchFrameOutput,
    isolated_times_ns: Optional[Sequence[float]] = None,
) -> FramePrediction:
    """Score one frame's clustering against its detailed simulation.

    The representatives are priced at their in-context cost, read out of
    ``truth``'s per-draw times, for the predicted frame time (E1) and
    the share of outlier clusters (E2).  ``isolated_times_ns`` are the
    representatives re-simulated alone, in cluster order; when given,
    the isolated prediction is carried too.
    """
    isolated = None
    if isolated_times_ns is not None:
        isolated = predict_time_ns(isolated_times_ns, clustering.weights)
    in_context_times = rep_times_from_draw_times(clustering, truth.draw_times_ns)
    return FramePrediction(
        frame_index=truth.frame_index,
        actual_time_ns=truth.time_ns,
        predicted_time_ns=predict_time_ns(in_context_times, clustering.weights),
        num_draws=clustering.num_draws,
        num_clusters=clustering.num_clusters,
        outlier_rate=cluster_quality(clustering, truth.draw_times_ns).outlier_rate,
        isolated_time_ns=isolated,
    )


@dataclass(frozen=True)
class PipelineResult:
    """Everything the paper's evaluation reports, for one trace+config."""

    trace_name: str
    config_name: str
    frame_predictions: Tuple[FramePrediction, ...]
    detection: PhaseDetection
    subset: WorkloadSubset
    actual_total_time_ns: float
    subset_estimated_total_time_ns: float
    combined_draw_fraction: float
    clusterings: Optional[Tuple[FrameClustering, ...]] = field(
        default=None, compare=False
    )
    telemetry: Optional[MetricsSnapshot] = field(default=None, compare=False)

    # -- E1 ------------------------------------------------------------------

    @property
    def mean_prediction_error(self) -> float:
        """Paper metric: representatives priced at in-context cost."""
        return float(np.mean([p.error for p in self.frame_predictions]))

    @property
    def mean_isolated_error(self) -> float:
        """Deployment metric: representatives re-simulated in isolation."""
        return float(np.mean([p.isolated_error for p in self.frame_predictions]))

    @property
    def mean_efficiency(self) -> float:
        return float(np.mean([p.efficiency for p in self.frame_predictions]))

    # -- E2 ---------------------------------------------------------------

    @property
    def mean_outlier_rate(self) -> float:
        return float(np.mean([p.outlier_rate for p in self.frame_predictions]))

    # -- E5 / phase-level accuracy ---------------------------------------------

    @property
    def subset_time_error(self) -> float:
        return (
            abs(self.subset_estimated_total_time_ns - self.actual_total_time_ns)
            / self.actual_total_time_ns
        )

    def report(self) -> str:
        """Human-readable summary (the per-game row of the paper's tables)."""
        rows = [
            ["frames", len(self.frame_predictions)],
            ["draws", self.subset.parent_num_draws],
            ["mean frame prediction error %", 100.0 * self.mean_prediction_error],
            ["mean isolated-resim error %", 100.0 * self.mean_isolated_error],
            ["mean clustering efficiency %", 100.0 * self.mean_efficiency],
            ["mean cluster outlier rate %", 100.0 * self.mean_outlier_rate],
            ["phases detected", self.detection.num_phases],
            ["intervals", self.detection.num_intervals],
            ["subset frame fraction %", 100.0 * self.subset.frame_fraction],
            ["subset draw fraction %", 100.0 * self.subset.draw_fraction],
            ["combined subset (clustered) %", 100.0 * self.combined_draw_fraction],
            ["subset total-time error %", 100.0 * self.subset_time_error],
        ]
        table = format_table(
            ["metric", "value"],
            rows,
            title=f"Subsetting report: {self.trace_name} on {self.config_name}",
        )
        if self.telemetry is not None:
            table = f"{table}\n{summary_line(self.telemetry)}"
        return table


class SubsettingPipeline:
    """Configured, reusable runner for the full methodology.

    Parameters are validated eagerly and *collectively*: every bad
    argument is reported with its field path in one
    :class:`~repro.util.validation.FieldValidationError`, so a CLI user
    or API client learns which knob was wrong (not just that something
    was) before any simulation starts.
    """

    def __init__(
        self,
        cluster_method: str = "leader",
        radius: float = DEFAULT_RADIUS,
        normalize: str = "zscore",
        k: Optional[int] = None,
        interval_length: int = DEFAULT_INTERVAL_LENGTH,
        phase_mode: str = "similarity",
        phase_tolerance: float = DEFAULT_TOLERANCE,
        seed: int = 0,
    ) -> None:
        from repro.core.cluster_frame import METHODS as CLUSTER_METHODS
        from repro.core.normalize import METHODS as NORMALIZE_METHODS
        from repro.core.phasedetect import MODES as PHASE_MODES
        from repro.util.validation import (
            FieldErrors,
            check_fraction,
            check_in,
            check_positive,
            check_type,
        )

        errors = FieldErrors()
        errors.collect(
            "cluster_method", check_in,
            "cluster_method", cluster_method, CLUSTER_METHODS,
        )
        errors.collect("radius", check_positive, "radius", radius)
        errors.collect(
            "normalize", check_in, "normalize", normalize, NORMALIZE_METHODS
        )
        if k is not None:
            if errors.collect("k", check_type, "k", k, int):
                errors.collect("k", check_positive, "k", k)
        if errors.collect(
            "interval_length", check_type,
            "interval_length", interval_length, int,
        ):
            errors.collect(
                "interval_length", check_positive,
                "interval_length", interval_length,
            )
        errors.collect(
            "phase_mode", check_in, "phase_mode", phase_mode, PHASE_MODES
        )
        errors.collect(
            "phase_tolerance", check_fraction,
            "phase_tolerance", phase_tolerance,
        )
        errors.collect("seed", check_type, "seed", seed, int)
        errors.raise_if_any()
        self.cluster_method = cluster_method
        self.radius = radius
        self.normalize = normalize
        self.k = k
        self.interval_length = interval_length
        self.phase_mode = phase_mode
        self.phase_tolerance = phase_tolerance
        self.seed = seed

    # -- pieces (reused by the experiment harness) -----------------------------

    def cluster_all_frames(
        self, trace: Trace, runtime: Optional[Runtime] = None
    ) -> List[FrameClustering]:
        """Cluster every frame of ``trace`` on its feature matrix."""
        if runtime is None:
            runtime = Runtime.serial()
        return runtime.cluster_frames(
            trace,
            method=self.cluster_method,
            radius=self.radius,
            k=self.k,
            normalize=self.normalize,
            seed=self.seed,
        )

    @staticmethod
    def representative_trace(
        trace: Trace, clusterings: List[FrameClustering]
    ) -> Trace:
        """The reduced trace containing only representative draws.

        Frame indices are preserved so the simulator's per-slot noise
        stays consistent with simulating the representatives alone.
        """
        if len(clusterings) != trace.num_frames:
            raise SubsetError(
                f"{len(clusterings)} clusterings for {trace.num_frames} frames"
            )
        return trace.with_frames(
            "reps",
            [
                frame.take(np.sort(clustering.representatives))
                for frame, clustering in zip(trace.frames, clusterings)
            ],
        )

    # -- full run ---------------------------------------------------------

    def run(
        self,
        trace: Trace,
        config: GpuConfig,
        keep_clusterings: bool = False,
        runtime: Optional[Runtime] = None,
    ) -> PipelineResult:
        """Execute the full methodology on ``trace`` at ``config``.

        Pass ``keep_clusterings=True`` to retain the per-frame
        clusterings, e.g. to compose the final deliverable artifact::

            result = pipeline.run(trace, config, keep_clusterings=True)
            artifact = build_combined_subset(
                trace, result.subset, result.clusterings
            )

        ``runtime`` selects the execution backend (parallel workers,
        artifact cache).  The default serial runtime reproduces the
        historical single-process behavior bit for bit.
        """
        if runtime is None:
            runtime = Runtime.serial()
        with runtime.tracer.span(
            "pipeline", category="pipeline", trace=trace.name, config=config.name
        ):
            ground = runtime.simulate_frames(trace, config, label="ground_truth")
            clusterings = self.cluster_all_frames(trace, runtime=runtime)

            rep_trace = self.representative_trace(trace, clusterings)
            rep_outputs = runtime.simulate_frames(
                rep_trace, config, label="representatives"
            )

            predictions: List[FramePrediction] = []
            with runtime.stage("predict"):
                for clustering, truth, rep_out in zip(
                    clusterings, ground, rep_outputs
                ):
                    # The representatives were simulated in draw order;
                    # score_frame takes their times in cluster order.
                    reps = clustering.representatives
                    isolated = rep_out.draw_times_ns[
                        np.searchsorted(np.sort(reps), reps)
                    ]
                    predictions.append(score_frame(clustering, truth, isolated))

            with runtime.stage("phase_detect"):
                detection = detect_phases(
                    trace,
                    interval_length=self.interval_length,
                    mode=self.phase_mode,
                    tolerance=self.phase_tolerance,
                )
                subset = build_subset(trace, detection)
            frame_times = [ground[p].time_ns for p in subset.frame_positions]
            subset_estimate = subset.estimate_total_time_ns(frame_times)
            actual_total = sum_in_order([out.time_ns for out in ground])

            kept_clusters = sum(
                clusterings[p].num_clusters for p in subset.frame_positions
            )
            combined_fraction = kept_clusters / trace.num_draws

        return PipelineResult(
            trace_name=trace.name,
            config_name=config.name,
            frame_predictions=tuple(predictions),
            detection=detection,
            subset=subset,
            actual_total_time_ns=actual_total,
            subset_estimated_total_time_ns=subset_estimate,
            combined_draw_fraction=combined_fraction,
            clusterings=tuple(clusterings) if keep_clusterings else None,
            telemetry=runtime.metrics.snapshot(),
        )
