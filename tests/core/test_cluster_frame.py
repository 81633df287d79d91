"""Tests for the per-frame clustering driver, representatives, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.core.metrics import cluster_quality, frame_prediction_error
from repro.core.predict import FramePrediction
from repro.core.representatives import cluster_sizes, representative_indices
from repro.errors import ClusteringError, ValidationError


@pytest.fixture
def frame_features(simple_trace):
    return FeatureExtractor(simple_trace).frame_matrix(simple_trace.frames[0])


class TestClusterFrame:
    def test_leader_default(self, frame_features):
        clustering = cluster_frame(frame_features)
        assert clustering.num_draws == frame_features.shape[0]
        assert 1 <= clustering.num_clusters <= clustering.num_draws
        assert clustering.weights.sum() == clustering.num_draws

    def test_groups_by_shader_family(self, frame_features, simple_trace):
        # The fixture frame has 8 similar shader-1 draws, 4 shader-2 draws
        # and 1 fullscreen draw; a moderate radius should group families.
        clustering = cluster_frame(frame_features, radius=1.5)
        labels = clustering.labels
        shader_ids = [d.shader_id for d in simple_trace.frames[0].draws()]
        by_shader = {}
        for label, sid in zip(labels, shader_ids):
            by_shader.setdefault(sid, set()).add(label)
        # Draws of different shader families never share a cluster.
        all_label_sets = list(by_shader.values())
        for i, a in enumerate(all_label_sets):
            for b in all_label_sets[i + 1 :]:
                assert not (a & b)

    def test_all_methods_run(self, frame_features):
        for method, kwargs in [
            ("leader", {}),
            ("kmeans", {"k": 4}),
            ("kmeans_bic", {}),
            ("agglomerative", {}),
        ]:
            clustering = cluster_frame(frame_features, method=method, **kwargs)
            assert clustering.method == method
            assert clustering.weights.sum() == frame_features.shape[0]

    def test_kmeans_requires_k(self, frame_features):
        with pytest.raises(ClusteringError, match="requires k"):
            cluster_frame(frame_features, method="kmeans")

    def test_labels_contiguous_and_reps_belong(self, frame_features):
        clustering = cluster_frame(frame_features, radius=0.5)
        assert set(clustering.labels) == set(range(clustering.num_clusters))
        for cluster, rep in enumerate(clustering.representatives):
            assert clustering.labels[rep] == cluster

    def test_efficiency_definition(self, frame_features):
        clustering = cluster_frame(frame_features)
        expected = 1.0 - clustering.num_clusters / clustering.num_draws
        assert clustering.efficiency == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            cluster_frame(np.empty((0, 5)))

    def test_columns_cluster_on_the_selected_features(self, frame_features):
        columns = [0, 1, 2, 11]
        selected = cluster_frame(frame_features, radius=0.5, columns=columns)
        expected = cluster_frame(frame_features[:, columns], radius=0.5)
        np.testing.assert_array_equal(selected.labels, expected.labels)
        np.testing.assert_array_equal(
            selected.representatives, expected.representatives
        )
        np.testing.assert_array_equal(selected.weights, expected.weights)


class TestRepresentatives:
    def test_medoid_is_nearest_to_centroid(self):
        matrix = np.array([[0.0], [1.0], [2.0], [10.0]])
        labels = np.array([0, 0, 0, 1])
        reps = representative_indices(matrix, labels)
        assert reps[0] == 1  # centroid of {0,1,2} is 1.0
        assert reps[1] == 3

    def test_non_contiguous_labels_rejected(self):
        with pytest.raises(ClusteringError, match="contiguous"):
            representative_indices(np.ones((3, 1)), np.array([0, 2, 2]))

    def test_cluster_sizes(self):
        sizes = cluster_sizes(np.array([0, 0, 1, 2, 2, 2]))
        np.testing.assert_array_equal(sizes, [2, 1, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ClusteringError, match="rows"):
            representative_indices(np.ones((3, 1)), np.array([0, 0]))


class TestMetrics:
    def test_efficiency_bounds(self):
        def efficiency(num_draws, num_clusters):
            return FramePrediction(
                frame_index=0,
                actual_time_ns=1.0,
                predicted_time_ns=1.0,
                num_draws=num_draws,
                num_clusters=num_clusters,
                outlier_rate=0.0,
            ).efficiency

        assert efficiency(100, 34) == pytest.approx(0.66)
        assert efficiency(10, 10) == 0.0

    def test_prediction_error(self):
        assert frame_prediction_error(100.0, 101.0) == pytest.approx(0.01)
        assert frame_prediction_error(100.0, 99.0) == pytest.approx(0.01)
        with pytest.raises(ValidationError):
            frame_prediction_error(0.0, 1.0)

    def test_cluster_quality_perfect(self):
        matrix = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        from repro.core.cluster_frame import FrameClustering

        clustering = FrameClustering(
            labels=labels,
            representatives=np.array([0, 2]),
            weights=np.array([2, 2]),
            method="test",
        )
        quality = cluster_quality(clustering, [5.0, 5.0, 7.0, 7.0])
        assert quality.intra_cluster_errors == (0.0, 0.0)
        assert quality.outlier_rate == 0.0

    def test_cluster_quality_outlier(self):
        from repro.core.cluster_frame import FrameClustering

        clustering = FrameClustering(
            labels=np.array([0, 0]),
            representatives=np.array([0]),
            weights=np.array([2]),
            method="test",
        )
        # rep time 1.0, member times (1.0, 3.0): estimate 2.0 vs true 4.0
        quality = cluster_quality(clustering, [1.0, 3.0])
        assert quality.intra_cluster_errors[0] == pytest.approx(0.5)
        assert quality.num_outliers == 1
        assert quality.outlier_rate == 1.0

    def test_threshold_respected(self):
        from repro.core.cluster_frame import FrameClustering

        clustering = FrameClustering(
            labels=np.array([0, 0]),
            representatives=np.array([0]),
            weights=np.array([2]),
            method="test",
        )
        quality = cluster_quality(clustering, [1.0, 1.2], outlier_threshold=0.2)
        assert quality.outlier_rate == 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_cluster_quality_equals_the_mask_loop(self, labels, data):
        """The sorted-slice sums give the same errors as one mask per cluster."""
        from repro.core.cluster_frame import FrameClustering

        _, labels = np.unique(np.array(labels), return_inverse=True)  # 0..K-1, singletons kept
        num_clusters = int(labels.max()) + 1
        times = np.array(data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e9), min_size=len(labels), max_size=len(labels),
        )))
        representatives = np.array([
            data.draw(st.sampled_from(np.flatnonzero(labels == c).tolist()))
            for c in range(num_clusters)
        ])
        clustering = FrameClustering(
            labels=labels,
            representatives=representatives,
            weights=np.bincount(labels),
            method="test",
        )
        reference = []
        for cluster in range(num_clusters):
            member_times = times[labels == cluster]
            true_total = float(member_times.sum())
            estimated = float(times[representatives[cluster]]) * member_times.shape[0]
            reference.append(abs(estimated - true_total) / true_total)
        assert cluster_quality(clustering, times).intra_cluster_errors == tuple(reference)

    def test_time_length_mismatch_rejected(self):
        from repro.core.cluster_frame import FrameClustering

        clustering = FrameClustering(
            labels=np.array([0]),
            representatives=np.array([0]),
            weights=np.array([1]),
            method="test",
        )
        with pytest.raises(ValidationError):
            cluster_quality(clustering, [1.0, 2.0])
