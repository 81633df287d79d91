"""Tests for subset construction, prediction, and the full pipeline."""

import builtins

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro import datasets
from repro.core.pipeline import SubsettingPipeline, score_frame
from repro.core.metrics import cluster_quality
from repro.core.predict import (
    predict_time_ns,
    rep_times_from_draw_times,
)
from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.core.phasedetect import detect_phases
from repro.core.subsetting import build_subset
from repro.errors import SubsetError, ValidationError
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile
from repro.util.stats import sum_in_order

CFG = GpuConfig.preset("mainstream")
SMALL = GameProfile.preset("bioshock1_like").scaled(0.06)


@pytest.fixture(scope="module")
def game_trace():
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
        )
    )
    return TraceGenerator(SMALL, seed=5).generate(script=script)


class TestPredict:
    def test_predict_time_weighted_sum(self):
        assert predict_time_ns([10.0, 5.0], [3, 2]) == pytest.approx(40.0)

    def test_isolated_error_requires_computation(self):
        from repro.core.predict import FramePrediction

        prediction = FramePrediction(
            frame_index=0,
            actual_time_ns=100.0,
            predicted_time_ns=101.0,
            num_draws=10,
            num_clusters=5,
            outlier_rate=0.0,
        )
        with pytest.raises(ValidationError, match="isolated"):
            prediction.isolated_error

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValidationError):
            predict_time_ns([1.0], [1, 2])

    def test_score_frame_both_paths(self, game_trace):
        pipeline = SubsettingPipeline()
        clusterings = pipeline.cluster_all_frames(game_trace, runtime=Runtime())
        clustering = clusterings[0]
        truth = Runtime.serial().simulate_frames(game_trace, CFG)[0]
        rep_trace = pipeline.representative_trace(game_trace, clusterings)
        rep_out = Runtime.serial().simulate_frames(rep_trace, CFG)[0]
        reps = clustering.representatives
        isolated_times = rep_out.draw_times_ns[np.searchsorted(np.sort(reps), reps)]

        in_context = score_frame(clustering, truth)
        prediction = score_frame(clustering, truth, isolated_times)
        assert in_context.isolated_time_ns is None
        assert prediction.isolated_time_ns == predict_time_ns(
            isolated_times, clustering.weights
        )
        assert prediction.predicted_time_ns == in_context.predicted_time_ns
        assert prediction.predicted_time_ns == predict_time_ns(
            rep_times_from_draw_times(clustering, truth.draw_times_ns),
            clustering.weights,
        )
        assert prediction.outlier_rate == cluster_quality(
            clustering, truth.draw_times_ns
        ).outlier_rate
        assert prediction.frame_index == game_trace.frames[0].index
        assert prediction.error < 0.1
        assert prediction.isolated_error < 0.25
        assert prediction.efficiency == clustering.efficiency > 0.0

    def test_rep_times_lookup(self, game_trace):
        frame = game_trace.frames[0]
        features = FeatureExtractor(game_trace).frame_matrix(frame)
        clustering = cluster_frame(features)
        times = np.arange(1.0, clustering.num_draws + 1.0)
        rep_times = rep_times_from_draw_times(clustering, times)
        for cluster, value in enumerate(rep_times):
            assert value == times[clustering.representatives[cluster]]


class TestBuildSubset:
    def test_weights_recover_parent_frames(self, game_trace):
        subset = build_subset(game_trace, interval_length=4)
        assert sum(subset.frame_weights) == pytest.approx(game_trace.num_frames)

    def test_fraction_below_one_on_repetitive_trace(self, game_trace):
        subset = build_subset(game_trace, interval_length=4)
        assert subset.frame_fraction < 1.0
        assert 0.0 < subset.draw_fraction < 1.0

    def test_materialize_preserves_tables(self, game_trace):
        subset = build_subset(game_trace, interval_length=4)
        sub_trace = subset.materialize(game_trace)
        assert sub_trace.num_frames == subset.num_frames
        assert sub_trace.shaders.keys() == game_trace.shaders.keys()

    def test_materialize_wrong_trace_rejected(self, game_trace, simple_trace):
        subset = build_subset(game_trace, interval_length=4)
        with pytest.raises(SubsetError, match="built from"):
            subset.materialize(simple_trace)

    def test_estimate_total_close_to_actual(self, game_trace):
        subset = build_subset(game_trace, interval_length=4)
        actual = GpuSimulator(CFG).simulate_trace(game_trace).total_time_ns
        estimate = subset.estimate_on_config(game_trace, CFG, runtime=Runtime())
        assert abs(estimate - actual) / actual < 0.08

    def test_detection_and_kwargs_mutually_exclusive(self, game_trace):
        detection = detect_phases(game_trace)
        with pytest.raises(SubsetError, match="not both"):
            build_subset(game_trace, detection, interval_length=2)

    def test_estimate_wrong_length_rejected(self, game_trace):
        subset = build_subset(game_trace, interval_length=4)
        with pytest.raises(SubsetError, match="frame times"):
            subset.estimate_total_time_ns([1.0])


class TestPipeline:
    @pytest.fixture(scope="class")
    def result(self, game_trace):
        return SubsettingPipeline().run(game_trace, CFG, keep_clusterings=True, runtime=Runtime())

    def test_one_prediction_per_frame(self, result, game_trace):
        assert len(result.frame_predictions) == game_trace.num_frames

    def test_paper_metrics_in_range(self, result):
        assert result.mean_prediction_error < 0.05
        assert 0.2 < result.mean_efficiency < 0.95
        assert 0.0 <= result.mean_outlier_rate < 0.25

    def test_isolated_error_at_least_in_context(self, result):
        # Isolated re-simulation adds cold-context bias on top of pure
        # clustering error (they can cross on individual frames, but not
        # dramatically on the average).
        assert result.mean_isolated_error >= result.mean_prediction_error * 0.5

    def test_subset_estimate_close(self, result):
        assert result.subset_time_error < 0.1

    def test_combined_fraction_smaller_than_parts(self, result):
        assert result.combined_draw_fraction < result.subset.frame_fraction

    def test_report_renders(self, result):
        report = result.report()
        assert "prediction error" in report
        assert result.trace_name in report

    def test_clusterings_kept_when_asked(self, result, game_trace):
        assert len(result.clusterings) == game_trace.num_frames

    def test_representative_trace_structure(self, game_trace):
        pipeline = SubsettingPipeline()
        clusterings = pipeline.cluster_all_frames(game_trace, runtime=Runtime())
        rep_trace = pipeline.representative_trace(game_trace, clusterings)
        assert rep_trace.name == f"{game_trace.name}.reps"
        assert rep_trace.num_frames == game_trace.num_frames
        for frame, parent, clustering in zip(
            rep_trace.frames, game_trace.frames, clusterings
        ):
            assert frame.num_draws == clustering.num_clusters
            # The representatives keep their submission order.
            np.testing.assert_array_equal(
                frame.table.vertex_count,
                parent.table.vertex_count[np.sort(clustering.representatives)],
            )

    def test_representative_trace_wrong_length_rejected(self, game_trace):
        pipeline = SubsettingPipeline()
        with pytest.raises(SubsetError):
            pipeline.representative_trace(game_trace, [])


def _compensated_sum(values, start=0):
    """Builtin ``sum`` as CPython 3.12 computes it over floats (Neumaier)."""
    items = list(values)
    if not all(isinstance(x, float) for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_actual_total_does_not_depend_on_builtin_sum(monkeypatch):
    # On this trace the compensated sum of the frame times differs from
    # the left-to-right sum in the last bit, so a pipeline that totals
    # with builtin sum() would report another ground truth on Python 3.12.
    trace = datasets.load("bioshock1_like", frames=8, seed=0, scale=0.1)
    reference = SubsettingPipeline().run(trace, CFG, runtime=Runtime())
    monkeypatch.setattr(pipeline_module, "sum", _compensated_sum, raising=False)
    result = SubsettingPipeline().run(trace, CFG, runtime=Runtime())
    frame_times = [p.actual_time_ns for p in result.frame_predictions]
    assert result.actual_total_time_ns == sum_in_order(frame_times)
    assert result == reference
