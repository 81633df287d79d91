"""Representative selection: one simulated draw stands in for its cluster."""

from __future__ import annotations

import numpy as np

from repro.core.distance import euclidean_to_point
from repro.errors import ClusteringError


def representative_indices(matrix: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The medoid-ish representative of each cluster.

    For each cluster, the member nearest the cluster centroid in feature
    space (ties to the earliest row).  Returns an array of row indices,
    one per cluster id (0..num_clusters-1), in cluster-id order.

    All clusters are handled at once.  ``np.add.at`` accumulates each
    cluster's rows in row order, as ``mean(axis=0)`` of its members does,
    and the distances use the same ``einsum`` as :func:`euclidean_to_point`
    on one cluster, so the result equals the per-cluster computation.
    The ``einsum`` must stay: a two-member cluster's members are exactly
    equidistant from its centroid in exact arithmetic, so the summation
    order decides which one is picked.
    """
    matrix = np.asarray(matrix, dtype=float)
    labels = np.asarray(labels)
    if matrix.shape[0] != labels.shape[0]:
        raise ClusteringError(
            f"matrix has {matrix.shape[0]} rows but labels has {labels.shape[0]}"
        )
    if matrix.shape[0] == 0:
        raise ClusteringError("cannot pick representatives of an empty matrix")
    present = np.unique(labels)
    num_clusters = int(present[-1]) + 1
    if present[0] != 0 or len(present) != num_clusters:
        raise ClusteringError(
            f"labels must be contiguous 0..{num_clusters - 1}; got {present.tolist()}"
        )
    sizes = np.bincount(labels)
    sums = np.zeros((num_clusters, matrix.shape[1]))
    np.add.at(sums, labels, matrix)
    centroids = sums / sizes[:, None]
    dists = euclidean_to_point(matrix, centroids[labels])
    # Rows grouped by cluster, nearest first; lexsort is stable, so equal
    # distances keep row order, as argmin does.
    order = np.lexsort((dists, labels))
    first = np.cumsum(sizes) - sizes
    return order[first].astype(np.int64)


def cluster_sizes(labels: np.ndarray) -> np.ndarray:
    """Population of each cluster id (the prediction weights)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ClusteringError("labels must be non-empty")
    return np.bincount(labels, minlength=int(labels.max()) + 1).astype(np.int64)
