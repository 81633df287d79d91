"""Incremental cross-frame clustering (extension beyond the paper).

The paper clusters each frame independently.  Consecutive frames render
nearly the same scene, so their clusterings are nearly identical —
re-clustering from scratch wastes work and, worse, may pick *different*
representatives for the same recurring group, defeating simulation-
result caching.

:class:`IncrementalClusterer` keeps the leader set alive across frames:
each new frame's draws are assigned to surviving leaders when within the
radius, and only novel draws found new clusters.  Leaders unused for
``max_idle_frames`` frames are retired.  The output per frame is a
standard :class:`~repro.core.cluster_frame.FrameClustering`, so all
metrics and prediction machinery apply unchanged; E7's ablation bench
quantifies the accuracy cost of reusing stale leaders.

Note: features must be normalized with a *shared* normalizer (fit on the
first frame or a sample), not per frame, or leader coordinates would
shift meaning between frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.cluster_frame import FrameClustering, _compact_labels
from repro.core.distance import euclidean_to_point
from repro.core.normalize import Normalizer
from repro.core.representatives import cluster_sizes, representative_indices
from repro.errors import ClusteringError


@dataclass
class _Leader:
    row: np.ndarray
    last_used_frame: int


class IncrementalClusterer:
    """Leader clustering with a warm leader set shared across frames."""

    def __init__(
        self,
        radius: float,
        normalizer: Normalizer,
        max_idle_frames: int = 8,
    ) -> None:
        if not radius > 0:
            raise ClusteringError(f"radius must be > 0, got {radius}")
        if max_idle_frames < 1:
            raise ClusteringError(
                f"max_idle_frames must be >= 1, got {max_idle_frames}"
            )
        self.radius = radius
        self.normalizer = normalizer
        self.max_idle_frames = max_idle_frames
        self._leaders: List[_Leader] = []
        self._frame_counter = 0

    @property
    def num_live_leaders(self) -> int:
        return len(self._leaders)

    def cluster_frame(self, features: np.ndarray) -> FrameClustering:
        """Cluster one frame's raw feature matrix, reusing live leaders."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ClusteringError(
                f"features must be a non-empty 2-D matrix, got {features.shape}"
            )
        normalized = self.normalizer.transform(features)
        frame = self._frame_counter
        self._frame_counter += 1

        # Retire leaders idle too long (scene content that scrolled away).
        self._leaders = [
            leader
            for leader in self._leaders
            if frame - leader.last_used_frame <= self.max_idle_frames
        ]

        n = normalized.shape[0]
        global_labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            assigned: Optional[int] = None
            if self._leaders:
                matrix = np.stack([leader.row for leader in self._leaders])
                dists = euclidean_to_point(matrix, normalized[i])
                nearest = int(np.argmin(dists))
                if dists[nearest] <= self.radius:
                    assigned = nearest
            if assigned is None:
                self._leaders.append(
                    _Leader(row=normalized[i].copy(), last_used_frame=frame)
                )
                assigned = len(self._leaders) - 1
            else:
                self._leaders[assigned].last_used_frame = frame
            global_labels[i] = assigned

        # Compact to this frame's local cluster ids (first-seen order).
        labels = _compact_labels(global_labels)
        return FrameClustering(
            labels=labels,
            representatives=representative_indices(normalized, labels),
            weights=cluster_sizes(labels),
            method="incremental_leader",
        )


def fit_shared_normalizer(
    feature_matrices: List[np.ndarray], method: str = "zscore"
) -> Normalizer:
    """Fit one normalizer over (a sample of) the trace's feature rows."""
    if not feature_matrices:
        raise ClusteringError("need at least one feature matrix to fit")
    stacked = np.vstack(feature_matrices)
    return Normalizer(method).fit(stacked)
