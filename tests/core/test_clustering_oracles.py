"""Vectorized clustering steps against the per-row/per-cluster loops they replaced.

Each oracle below is the earlier loop, kept verbatim as the reference.
Every comparison is ``==`` on the raw arrays, never approximate: a
different label or representative changes which draws are simulated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import datasets
from repro.core.cluster_frame import _compact_labels
from repro.core.distance import euclidean_to_point
from repro.core.features import FeatureExtractor
from repro.core.normalize import Normalizer
from repro.core.representatives import representative_indices
from repro.simgpu import _kernels

RADII = (0.05, 0.1, 0.21, 0.45, 1.0)


def einsum_leader_oracle(matrix, radius):
    """The leader loop with ``euclidean_to_point``'s einsum distance."""
    n = matrix.shape[0]
    labels = np.empty(n, dtype=np.int64)
    leader_indices = []
    leader_matrix = np.empty((n, matrix.shape[1]))
    count = 0
    for i in range(n):
        if count:
            dists = euclidean_to_point(leader_matrix[:count], matrix[i])
            nearest = int(np.argmin(dists))
            if dists[nearest] <= radius:
                labels[i] = nearest
                continue
        leader_matrix[count] = matrix[i]
        leader_indices.append(i)
        labels[i] = count
        count += 1
    return labels, np.array(leader_indices, dtype=np.int64)


def per_cluster_representatives_oracle(matrix, labels):
    """One centroid, distance pass and argmin per cluster."""
    num_clusters = int(labels.max()) + 1
    reps = np.empty(num_clusters, dtype=np.int64)
    for cluster in range(num_clusters):
        member_rows = np.nonzero(labels == cluster)[0]
        centroid = matrix[member_rows].mean(axis=0)
        dists = euclidean_to_point(matrix[member_rows], centroid)
        reps[cluster] = member_rows[int(np.argmin(dists))]
    return reps


def dict_compact_oracle(labels):
    """First-seen relabelling through a dict."""
    mapping = {}
    out = np.empty_like(labels)
    for i, label in enumerate(labels):
        key = int(label)
        if key not in mapping:
            mapping[key] = len(mapping)
        out[i] = mapping[key]
    return out


@pytest.fixture(scope="module")
def real_frames():
    """Per-frame z-scored feature matrices: one 17-draw and two ~1000-draw frames."""
    trace = datasets.load("bioshock_infinite_like", frames=10, seed=7, scale=0.5)
    extractor = FeatureExtractor(trace)
    return [
        Normalizer("zscore").fit_transform(extractor.frame_matrix(trace.frames[i]))
        for i in (0, 8, 9)
    ]


@pytest.mark.parametrize("radius", RADII)
def test_python_leader_matches_einsum_loop_on_real_frames(real_frames, radius):
    for matrix in real_frames:
        expected_labels, expected_leaders = einsum_leader_oracle(matrix, radius)
        labels, leaders = _kernels._PYTHON_BACKEND._leader(
            np.ascontiguousarray(matrix), radius
        )
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(leaders, expected_leaders)


@pytest.mark.parametrize("radius", RADII)
def test_representatives_match_per_cluster_loop_on_real_frames(real_frames, radius):
    for matrix in real_frames:
        labels, _ = einsum_leader_oracle(matrix, radius)
        assert np.array_equal(
            representative_indices(matrix, labels),
            per_cluster_representatives_oracle(matrix, labels),
        )


def test_representatives_exact_two_member_ties_go_to_first_member():
    # Each two-member cluster's members sit exactly symmetric about its
    # centroid, so both distances are the same double.
    matrix = np.array(
        [[0.0, 0.0], [5.0, 1.0], [2.0, 2.0], [1.0, 5.0], [7.0, 7.0], [9.0, 9.0]]
    )
    labels = np.array([0, 1, 0, 1, 2, 2])
    centroid = matrix[[0, 2]].mean(axis=0)
    dists = euclidean_to_point(matrix[[0, 2]], centroid)
    assert dists[0] == dists[1]
    reps = representative_indices(matrix, labels)
    assert np.array_equal(reps, per_cluster_representatives_oracle(matrix, labels))
    assert reps.tolist() == [0, 1, 4]


@st.composite
def labelled_matrices(draw):
    """(matrix, contiguous labels); grid values make exact ties common."""
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=5))
    grid = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    elements = st.one_of(grid, st.floats(min_value=-50, max_value=50))
    matrix = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    raw = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    return matrix, _compact_labels(np.array(raw, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(labelled_matrices())
def test_representatives_match_per_cluster_loop(case):
    matrix, labels = case
    assert np.array_equal(
        representative_indices(matrix, labels),
        per_cluster_representatives_oracle(matrix, labels),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=60))
def test_compact_labels_matches_dict_loop(raw):
    labels = np.array(raw, dtype=np.int64)
    compacted = _compact_labels(labels)
    expected = dict_compact_oracle(labels)
    assert compacted.dtype == expected.dtype
    assert np.array_equal(compacted, expected)
