"""Leader (radius) clustering — the pipeline's default grouping algorithm.

A single deterministic pass: each point joins the nearest existing leader
within ``radius``, or founds a new cluster.  No k to choose up front, and
the radius directly expresses the paper's notion of "performance
similarity": draws whose normalized characteristics differ by less than
the radius are presumed to perform alike.

The pass itself is the ``leader`` kernel of :mod:`repro.simgpu._kernels`
(compiled, with a bit-identical numpy reference); this module validates
its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.simgpu import _kernels


@dataclass(frozen=True)
class LeaderResult:
    """Labels plus the leader (founder) index of each cluster."""

    labels: np.ndarray  # (n,) cluster id per point
    leader_indices: np.ndarray  # (k,) row index of each cluster's founder

    @property
    def num_clusters(self) -> int:
        return len(self.leader_indices)


def leader_cluster(matrix: np.ndarray, radius: float) -> LeaderResult:
    """Cluster rows of ``matrix`` with the leader algorithm.

    Points are processed in row order (submission order for draws), which
    makes the result deterministic and order-sensitive in the same way a
    streaming implementation in a real tool would be.  A distance is the
    square root of the squared differences summed left to right over the
    columns; ties go to the earliest leader.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ClusteringError(
            f"matrix must be a 2-D array with at least one row and one "
            f"column, got shape {matrix.shape}"
        )
    if not radius > 0:
        raise ClusteringError(f"radius must be > 0, got {radius}")
    if not np.isfinite(matrix).all():
        raise ClusteringError("matrix contains non-finite values (NaN or inf)")
    labels, leader_indices = _kernels.leader_labels(matrix, radius)
    return LeaderResult(labels=labels, leader_indices=leader_indices)
