"""Per-frame draw-call clustering — the driver for the paper's first part.

Given a frame's micro-architecture-independent feature matrix, normalize
it, run the chosen grouping algorithm, and select one representative per
cluster with its population weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.hierarchical import agglomerative_cluster
from repro.core.kmeans import kmeans
from repro.core.kselect import select_k_bic
from repro.core.leader import leader_cluster
from repro.core.normalize import Normalizer
from repro.core.representatives import cluster_sizes, representative_indices
from repro.errors import ClusteringError
from repro.util.validation import check_in

METHODS = ("leader", "kmeans", "kmeans_bic", "agglomerative")

# Default similarity radius in per-frame z-scored feature space.
# Calibrated so the BioShock-like corpus lands at the paper's operating
# point (~66% clustering efficiency, ~3% cluster outliers); see
# EXPERIMENTS.md for the calibration sweep (E3).
DEFAULT_RADIUS = 0.21


@dataclass(frozen=True)
class FrameClustering:
    """Clustering of one frame's draws.

    ``labels[i]`` is the cluster of draw i; ``representatives[c]`` is the
    draw index simulated for cluster c; ``weights[c]`` its population.
    """

    labels: np.ndarray
    representatives: np.ndarray
    weights: np.ndarray
    method: str

    @property
    def num_draws(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_clusters(self) -> int:
        return int(self.representatives.shape[0])

    @property
    def efficiency(self) -> float:
        """Fraction of per-draw simulations avoided (paper's metric)."""
        return 1.0 - self.num_clusters / self.num_draws


def cluster_frame(
    features: np.ndarray,
    method: str = "leader",
    radius: float = DEFAULT_RADIUS,
    k: Optional[int] = None,
    k_candidates: Optional[Sequence[int]] = None,
    linkage: str = "average",
    normalize: str = "zscore",
    columns: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> FrameClustering:
    """Cluster one frame's feature matrix.

    Args:
        features: (num_draws, num_features) raw feature matrix.
        method: 'leader' (radius, default), 'kmeans' (fixed k),
            'kmeans_bic' (BIC-selected k), or 'agglomerative' (threshold).
        radius: similarity radius for 'leader'/'agglomerative', in
            normalized feature space.
        k: cluster count for 'kmeans'.
        k_candidates: k search range for 'kmeans_bic'; defaults to powers
            of two up to num_draws.
        linkage: linkage rule for 'agglomerative'.
        normalize: 'zscore' (default), 'minmax', or 'none'.
        columns: the feature columns to cluster on (default all), e.g.
            to ablate a feature group (E7).
        seed: randomness seed (k-means initialization).
    """
    check_in("method", method, METHODS)
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ClusteringError(
            f"features must be a non-empty 2-D matrix, got shape {features.shape}"
        )
    if columns is not None:
        features = features[:, list(columns)]
    normalized = Normalizer(normalize).fit_transform(features)

    if method == "leader":
        labels = leader_cluster(normalized, radius).labels
    elif method == "agglomerative":
        labels = agglomerative_cluster(normalized, radius, linkage).labels
    elif method == "kmeans":
        if k is None:
            raise ClusteringError("method 'kmeans' requires k")
        labels = kmeans(normalized, min(k, features.shape[0]), seed=seed).labels
    else:  # kmeans_bic
        if k_candidates is None:
            n = features.shape[0]
            k_candidates = [1, 2, 4, 8, 16, 32, 64, 128]
            k_candidates = [c for c in k_candidates if c <= n] or [n]
        labels = select_k_bic(normalized, k_candidates, seed=seed).result.labels

    labels = _compact_labels(labels)
    representatives = representative_indices(normalized, labels)
    weights = cluster_sizes(labels)
    return FrameClustering(
        labels=labels,
        representatives=representatives,
        weights=weights,
        method=method,
    )


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber labels to contiguous 0..k-1 preserving first-seen order."""
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=labels.dtype)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]
