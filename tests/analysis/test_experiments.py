"""Tests for the canned experiment runners E1-E8."""

import math

import pytest

from repro.analysis import experiments as ex
from repro.analysis.report import ExperimentResult
from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


def tiny_trace(game="bioshock1_like", seed=6, frames=12):
    profile = GameProfile.preset(game).scaled(0.06)
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, frames // 2),
            Segment(SegmentKind.COMBAT, 0, frames // 4),
            Segment(SegmentKind.EXPLORE, 0, frames - frames // 2 - frames // 4),
        )
    )
    return TraceGenerator(profile, seed=seed).generate(script=script)


@pytest.fixture(scope="module")
def tiny_corpus():
    return {
        "bioshock1_like": tiny_trace("bioshock1_like"),
        "bioshock2_like": tiny_trace("bioshock2_like"),
    }


class TestClusteringMetrics:
    def test_per_frame_rows(self, tiny_corpus):
        trace = tiny_corpus["bioshock1_like"]
        metrics = ex.clustering_metrics(trace, CFG, runtime=Runtime())
        assert len(metrics) == trace.num_frames
        for m in metrics:
            assert 0.0 <= m.error < 1.0
            assert 0.0 <= m.efficiency < 1.0
            assert 0.0 <= m.outlier_rate <= 1.0
            assert m.num_clusters >= 1

    def test_feature_columns_subset(self, tiny_corpus):
        trace = tiny_corpus["bioshock1_like"]
        metrics = ex.clustering_metrics(trace, CFG, columns=[0, 1, 2], runtime=Runtime())
        assert len(metrics) == trace.num_frames
        extractor = FeatureExtractor(trace)
        for m, frame in zip(metrics, trace.frames):
            expected = cluster_frame(extractor.frame_matrix(frame)[:, [0, 1, 2]])
            assert m.num_clusters == expected.num_clusters


class TestE1E2:
    def test_e1_structure(self, tiny_corpus):
        result = ex.e1_clustering_accuracy(tiny_corpus, CFG, runtime=Runtime())
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "E1"
        games = result.column("game")
        assert games[-1] == "AVERAGE"
        assert len(games) == len(tiny_corpus) + 1
        for err in result.column("pred error %"):
            assert 0.0 <= err < 50.0

    def test_e2_structure(self, tiny_corpus):
        result = ex.e2_cluster_outliers(tiny_corpus, CFG, runtime=Runtime())
        rates = result.column("outlier rate %")
        assert all(0.0 <= r <= 100.0 for r in rates)

    def test_e2_reads_back_the_clusterings_e1_made(self, tiny_corpus, tmp_path):
        runtime = Runtime(cache_dir=tmp_path)
        frames = sum(trace.num_frames for trace in tiny_corpus.values())
        e1 = ex.e1_clustering_accuracy(tiny_corpus, CFG, runtime=runtime)
        assert runtime.metrics.snapshot().counter_total("frames_clustered") == frames
        e2 = ex.e2_cluster_outliers(tiny_corpus, CFG, runtime=runtime)
        snapshot = runtime.metrics.snapshot()
        assert snapshot.counter_total("frames_clustered") == frames
        assert snapshot.counter_total("frames_simulated") == frames
        assert e1.rows == ex.e1_clustering_accuracy(tiny_corpus, CFG, runtime=Runtime()).rows
        assert e2.rows == ex.e2_cluster_outliers(tiny_corpus, CFG, runtime=Runtime()).rows

    def test_render_contains_paper_refs(self, tiny_corpus):
        text = ex.e1_clustering_accuracy(tiny_corpus, CFG, runtime=Runtime()).render()
        assert "65.8%" in text
        assert "1.0%" in text


class TestE3:
    def test_efficiency_monotone_in_radius(self, tiny_corpus):
        result = ex.e3_error_efficiency_tradeoff(
            tiny_corpus["bioshock1_like"], CFG, radii=(0.05, 0.3, 1.0), runtime=Runtime()
        )
        effs = result.column("efficiency %")
        assert effs[0] < effs[-1]


class TestE4:
    def test_phases_exist_in_each_game(self, tiny_corpus):
        result = ex.e4_phase_detection(tiny_corpus)
        assert all(result.column("has phases"))
        for factor in result.column("repeat factor"):
            assert factor > 1.0

    def test_purity_reported(self, tiny_corpus):
        result = ex.e4_phase_detection(tiny_corpus)
        for purity in result.column("purity %"):
            assert math.isnan(purity) or 0.0 <= purity <= 100.0


class TestE5:
    def test_fraction_shrinks_with_length(self):
        result = ex.e5_subset_size(
            "bioshock1_like", lengths=(40, 160), scale=0.06, runtime=Runtime()
        )
        fractions = result.column("combined subset draws %")
        assert fractions[-1] < fractions[0]


class TestE6:
    def test_correlation_above_paper_bar(self, tiny_corpus):
        result = ex.e6_frequency_correlation(
            tiny_corpus, CFG, clocks_mhz=(600.0, 1000.0, 1400.0), runtime=Runtime()
        )
        for r in result.column("correlation r"):
            assert r > 0.99


class TestE7:
    def test_all_variants_present(self, tiny_corpus):
        result = ex.e7_ablations(tiny_corpus["bioshock1_like"], CFG, runtime=Runtime())
        variants = result.column("variant")
        assert any("leader (default)" in v for v in variants)
        assert any("kmeans" in v for v in variants)
        assert any("agglomerative" in v for v in variants)
        for group in ex.FEATURE_GROUPS:
            assert any(group in v for v in variants)

    def test_feature_groups_cover_all_features(self):
        from repro.core.features import FEATURE_NAMES

        covered = set()
        for names in ex.FEATURE_GROUPS.values():
            covered.update(names)
        assert covered == set(FEATURE_NAMES)


class TestE8:
    def test_clustering_beats_naive_baselines(self, tiny_corpus):
        result = ex.e8_baselines(tiny_corpus["bioshock1_like"], CFG, runtime=Runtime())
        errors = dict(zip(result.column("method"), result.column("error %")))
        assert errors["clustering (paper)"] < errors["first_n"]
        assert errors["clustering (paper)"] < errors["random"]

    def test_frame_block_present(self, tiny_corpus):
        result = ex.e8_baselines(tiny_corpus["bioshock1_like"], CFG, runtime=Runtime())
        methods = result.column("method")
        assert any("phase subset" in m for m in methods)
        assert any("simpoint" in m for m in methods)


class TestGroundTruthSimulatedOnce:
    """A runner simulates each frame of its ground truth once, whatever
    number of clusterings it scores against it."""

    def test_e3_simulates_each_frame_once(self, tiny_corpus, simulated_frames):
        trace = tiny_corpus["bioshock1_like"]
        ex.e3_error_efficiency_tradeoff(trace, CFG, radii=(0.05, 0.3, 1.0), runtime=Runtime())
        assert sorted(simulated_frames) == [f.index for f in trace.frames]

    def test_e7_simulates_each_frame_once(self, tiny_corpus, simulated_frames):
        trace = tiny_corpus["bioshock1_like"]
        ex.e7_ablations(trace, CFG, runtime=Runtime())
        assert sorted(simulated_frames) == [f.index for f in trace.frames]

    def test_e5_simulates_nothing(self, simulated_frames):
        result = ex.e5_subset_size(
            "bioshock1_like", lengths=(40,), scale=0.06, runtime=Runtime()
        )
        assert simulated_frames == []
        assert result.column("combined subset draws %")[0] > 0.0


class TestReport:
    def test_column_lookup(self, tiny_corpus):
        result = ex.e1_clustering_accuracy(tiny_corpus, CFG, runtime=Runtime())
        with pytest.raises(ValueError):
            result.column("nonexistent")

    def test_as_dict(self, tiny_corpus):
        data = ex.e2_cluster_outliers(tiny_corpus, CFG, runtime=Runtime()).as_dict()
        assert data["experiment"] == "E2"
        assert isinstance(data["rows"], list)
