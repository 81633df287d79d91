"""Clustering-quality metrics: the errors the paper's tables report.

- per-frame performance prediction error (paper: 1.0% average)
- cluster outliers: clusters whose intra-cluster prediction error
  exceeds 20% (paper: 3.0% of clusters on average)

:func:`repro.core.pipeline.score_frame` applies both to one frame, with
its clustering efficiency (paper: 65.8% average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.cluster_frame import FrameClustering
from repro.errors import ValidationError

OUTLIER_ERROR_THRESHOLD = 0.20


def frame_prediction_error(actual_ns: float, predicted_ns: float) -> float:
    """Relative frame-time prediction error (fraction)."""
    if actual_ns <= 0:
        raise ValidationError(f"actual_ns must be > 0, got {actual_ns}")
    return abs(predicted_ns - actual_ns) / actual_ns


@dataclass(frozen=True)
class ClusterQuality:
    """Intra-cluster coherence of one frame's clustering."""

    intra_cluster_errors: Tuple[float, ...]
    outlier_threshold: float

    @property
    def num_clusters(self) -> int:
        return len(self.intra_cluster_errors)

    @property
    def num_outliers(self) -> int:
        return sum(
            1 for e in self.intra_cluster_errors if e > self.outlier_threshold
        )

    @property
    def outlier_rate(self) -> float:
        return self.num_outliers / self.num_clusters


def cluster_quality(
    clustering: FrameClustering,
    draw_times_ns: Sequence[float],
    outlier_threshold: float = OUTLIER_ERROR_THRESHOLD,
) -> ClusterQuality:
    """Per-cluster prediction error against ground-truth draw times.

    A cluster's intra-cluster prediction error is
    ``|population x t_rep - sum(t_members)| / sum(t_members)`` — how far
    scaling the representative misses the cluster's true total.

    One stable sort groups the draws by cluster, members in draw order,
    so each cluster's members are one contiguous slice holding the same
    values in the same order as ``times[labels == cluster]``: the same
    sums, in O(N) slicing instead of one mask per cluster.
    """
    times = np.asarray(draw_times_ns, dtype=float)
    if times.shape[0] != clustering.num_draws:
        raise ValidationError(
            f"draw_times covers {times.shape[0]} draws but clustering has "
            f"{clustering.num_draws}"
        )
    if np.any(times <= 0):
        raise ValidationError("draw times must be strictly positive")
    labels = np.asarray(clustering.labels)
    grouped = times[np.argsort(labels, kind="stable")]
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(labels, minlength=clustering.num_clusters)))
    ).tolist()
    rep_times = times[np.asarray(clustering.representatives, dtype=np.int64)].tolist()
    errors = []
    for cluster in range(clustering.num_clusters):
        lo, hi = bounds[cluster], bounds[cluster + 1]
        true_total = float(grouped[lo:hi].sum())
        estimated = rep_times[cluster] * (hi - lo)
        errors.append(abs(estimated - true_total) / true_total)
    return ClusterQuality(
        intra_cluster_errors=tuple(errors), outlier_threshold=outlier_threshold
    )
