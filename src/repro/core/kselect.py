"""Choosing k for k-means: BIC score and SimPoint-style search.

SimPoint picks the smallest k whose BIC reaches a fixed fraction of the
best BIC seen across the k range; we use the same rule for the k-means
variant of draw-call clustering and for the frame-level SimPoint-analog
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.kmeans import KMeansResult, kmeans
from repro.errors import ClusteringError


def bic_score(matrix: np.ndarray, result: KMeansResult) -> float:
    """Bayesian information criterion of a k-means clustering.

    Spherical-Gaussian formulation (Pelleg & Moore's X-means, as used by
    SimPoint): higher is better.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, d = matrix.shape
    k = result.num_clusters
    if n <= k:
        # Degenerate: every point its own cluster; likelihood unbounded.
        return float("inf")
    variance = result.inertia / (d * (n - k))
    if variance <= 0.0:
        return float("inf")
    log_likelihood = 0.0
    for j in range(k):
        size = int((result.labels == j).sum())
        if size == 0:
            continue
        log_likelihood += (
            size * math.log(size / n)
            - 0.5 * size * d * math.log(2.0 * math.pi * variance)
            - 0.5 * (size - k / n) * d
        )
    free_parameters = k * (d + 1)
    return log_likelihood - 0.5 * free_parameters * math.log(n)


@dataclass(frozen=True)
class KSelection:
    """Outcome of a BIC-driven k search."""

    k: int
    result: KMeansResult
    bic_by_k: Tuple[Tuple[int, float], ...]


def select_k_bic(
    matrix: np.ndarray,
    k_candidates: Sequence[int],
    seed: int = 0,
    bic_fraction: float = 0.9,
) -> KSelection:
    """Pick the smallest candidate k reaching ``bic_fraction`` of max BIC."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError(
            f"matrix must be a non-empty 2-D array, got shape {matrix.shape}"
        )
    n = matrix.shape[0]
    candidates = sorted({k for k in k_candidates if 1 <= k <= n})
    if not candidates:
        raise ClusteringError(
            f"no valid k candidates in [1, {n}] among {list(k_candidates)}"
        )
    results = {}
    scores = {}
    for k in candidates:
        result = kmeans(matrix, k, seed=seed)
        results[k] = result
        scores[k] = bic_score(matrix, result)
    finite = [s for s in scores.values() if math.isfinite(s)]
    if not finite:
        chosen = candidates[0]
    else:
        best = max(finite)
        # Threshold interpolates toward the worst score when best <= 0.
        worst = min(finite)
        cut = worst + bic_fraction * (best - worst)
        chosen = candidates[-1]
        for k in candidates:
            if math.isfinite(scores[k]) and scores[k] >= cut:
                chosen = k
                break
    return KSelection(
        k=chosen,
        result=results[chosen],
        bic_by_k=tuple((k, scores[k]) for k in candidates),
    )

