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

    Sums squared differences one row at a time, so the matrix is exactly
    symmetric and identical rows are exactly 0 apart.  The
    expanded-square identity ``|a|^2 + |b|^2 - 2 a.b`` cancels
    catastrophically for near-identical rows: it can put equal rows
    about 1e-6 apart, enough to break the triangle inequality.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {matrix.shape}")
    d2 = np.empty((len(matrix), len(matrix)))
    for i, row in enumerate(matrix):
        diff = matrix - row
        d2[i] = np.einsum("ij,ij->i", diff, diff)
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
