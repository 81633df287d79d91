"""Tests for the clustering algorithms: leader, k-means, agglomerative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.hierarchical import agglomerative_cluster
from repro.core.kmeans import kmeans
from repro.core.kselect import bic_score, select_k_bic
from repro.core.leader import leader_cluster
from repro.errors import ClusteringError


def blobs(centers, points_per_blob=20, spread=0.05, seed=0):
    """Well-separated Gaussian blobs for sanity-checking clusterers."""
    rng = np.random.default_rng(seed)
    rows = []
    for center in centers:
        rows.append(rng.normal(center, spread, size=(points_per_blob, len(center))))
    return np.vstack(rows)


THREE_BLOBS = blobs([[0, 0], [5, 5], [10, 0]])

matrices = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 5)),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


class TestLeader:
    def test_recovers_blobs(self):
        result = leader_cluster(THREE_BLOBS, radius=1.0)
        assert result.num_clusters == 3
        # All members of a blob share a label.
        for start in (0, 20, 40):
            assert len(set(result.labels[start : start + 20])) == 1

    def test_radius_extremes(self):
        tight = leader_cluster(THREE_BLOBS, radius=1e-9)
        assert tight.num_clusters == len(THREE_BLOBS)
        loose = leader_cluster(THREE_BLOBS, radius=1e6)
        assert loose.num_clusters == 1

    def test_leaders_are_first_members(self):
        result = leader_cluster(THREE_BLOBS, radius=1.0)
        np.testing.assert_array_equal(result.leader_indices, [0, 20, 40])

    def test_deterministic(self):
        a = leader_cluster(THREE_BLOBS, radius=1.0)
        b = leader_cluster(THREE_BLOBS, radius=1.0)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_bad_radius_rejected(self):
        with pytest.raises(ClusteringError, match="radius"):
            leader_cluster(THREE_BLOBS, radius=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            leader_cluster(np.empty((0, 3)), radius=1.0)

    def test_no_columns_rejected(self):
        with pytest.raises(ClusteringError, match="one column"):
            leader_cluster(np.empty((3, 0)), radius=1.0)

    def test_nan_rejected(self):
        # numpy's argmin would let a NaN row found its own cluster, a C
        # loop comparing with < would join it to another: neither backend
        # may see one.
        matrix = THREE_BLOBS.copy()
        matrix[5, 1] = np.nan
        with pytest.raises(ClusteringError, match="non-finite"):
            leader_cluster(matrix, radius=1.0)

    def test_inf_rejected(self):
        matrix = THREE_BLOBS.copy()
        matrix[25, 0] = -np.inf
        with pytest.raises(ClusteringError, match="non-finite"):
            leader_cluster(matrix, radius=1.0)

    @settings(max_examples=30, deadline=None)
    @given(matrices, st.floats(min_value=0.01, max_value=100))
    def test_invariants(self, matrix, radius):
        result = leader_cluster(matrix, radius)
        n = matrix.shape[0]
        assert result.labels.shape == (n,)
        assert result.labels.min() >= 0
        assert result.num_clusters == result.labels.max() + 1
        # Every point is within radius of its cluster's leader.
        for i in range(n):
            leader = result.leader_indices[result.labels[i]]
            dist = np.linalg.norm(matrix[i] - matrix[leader])
            assert dist <= radius + 1e-9 or i == leader


class TestKMeans:
    def test_recovers_blobs(self):
        result = kmeans(THREE_BLOBS, k=3, seed=1)
        assert result.num_clusters == 3
        for start in (0, 20, 40):
            assert len(set(result.labels[start : start + 20])) == 1

    def test_deterministic_given_seed(self):
        a = kmeans(THREE_BLOBS, k=3, seed=5)
        b = kmeans(THREE_BLOBS, k=3, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inertia_decreases_with_k(self):
        inertias = [kmeans(THREE_BLOBS, k=k, seed=0).inertia for k in (1, 3, 10)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_k_equals_n(self):
        matrix = np.arange(10.0).reshape(5, 2)
        result = kmeans(matrix, k=5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_no_empty_clusters(self):
        result = kmeans(THREE_BLOBS, k=7, seed=3)
        assert set(result.labels) == set(range(7))

    def test_bad_k_rejected(self):
        with pytest.raises(ClusteringError, match="k must be"):
            kmeans(THREE_BLOBS, k=0)
        with pytest.raises(ClusteringError, match="k must be"):
            kmeans(THREE_BLOBS, k=len(THREE_BLOBS) + 1)

    def test_duplicate_points_handled(self):
        matrix = np.ones((10, 3))
        result = kmeans(matrix, k=2, seed=0)
        assert result.labels.shape == (10,)


class TestAgglomerative:
    @pytest.mark.parametrize("linkage", ["average", "complete"])
    def test_recovers_blobs(self, linkage):
        result = agglomerative_cluster(THREE_BLOBS, threshold=2.0, linkage=linkage)
        assert result.num_clusters == 3

    def test_threshold_extremes(self):
        one = agglomerative_cluster(THREE_BLOBS, threshold=1e6)
        assert one.num_clusters == 1
        many = agglomerative_cluster(THREE_BLOBS, threshold=1e-9)
        assert many.num_clusters == len(THREE_BLOBS)

    def test_single_point(self):
        result = agglomerative_cluster(np.ones((1, 2)), threshold=1.0)
        assert result.num_clusters == 1

    def test_complete_at_most_average_merging(self):
        # Complete linkage is stricter, so never fewer clusters... actually
        # never merges more than average at the same threshold.
        avg = agglomerative_cluster(THREE_BLOBS, 2.0, "average").num_clusters
        comp = agglomerative_cluster(THREE_BLOBS, 2.0, "complete").num_clusters
        assert comp >= avg

    def test_bad_linkage_rejected(self):
        with pytest.raises(Exception):
            agglomerative_cluster(THREE_BLOBS, 1.0, linkage="single!")

    def test_labels_contiguous(self):
        result = agglomerative_cluster(THREE_BLOBS, threshold=2.0)
        assert set(result.labels) == set(range(result.num_clusters))


class TestKSelect:
    def test_bic_prefers_true_k(self):
        selection = select_k_bic(THREE_BLOBS, [1, 2, 3, 5, 8], seed=0)
        assert selection.k == 3

    def test_bic_by_k_recorded(self):
        selection = select_k_bic(THREE_BLOBS, [2, 3], seed=0)
        assert [k for k, _ in selection.bic_by_k] == [2, 3]

    def test_invalid_candidates_rejected(self):
        with pytest.raises(ClusteringError, match="no valid k"):
            select_k_bic(THREE_BLOBS, [0, 1000])

    def test_bic_score_finite_for_normal_case(self):
        result = kmeans(THREE_BLOBS, k=3, seed=0)
        assert np.isfinite(bic_score(THREE_BLOBS, result))
