"""Distance computations used by the clustering algorithms."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def euclidean_to_point(matrix: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of ``matrix`` to ``point``.

    ``point`` may also hold one point per row (same shape as ``matrix``).
    """
    diff = matrix - point
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_euclidean(matrix: np.ndarray) -> np.ndarray:
    """Full (n, n) Euclidean distance matrix.

    Uses the expanded-square identity with a clamp against negative
    round-off before the square root.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {matrix.shape}")
    sq = np.einsum("ij,ij->i", matrix, matrix)
    gram = matrix @ matrix.T
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def cdist_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two row sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"incompatible shapes for cdist: {a.shape} vs {b.shape}"
        )
    sa = np.einsum("ij,ij->i", a, a)
    sb = np.einsum("ij,ij->i", b, b)
    d2 = sa[:, None] + sb[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)
