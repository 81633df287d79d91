"""Tests for suite-level subsetting."""

import pytest

from repro.analysis.suite import subset_suite
from repro.errors import ValidationError
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def corpus():
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
        )
    )
    traces = {}
    for game in ("bioshock1_like", "bioshock2_like"):
        profile = GameProfile.preset(game).scaled(0.06)
        traces[game] = TraceGenerator(profile, seed=51).generate(script=script)
    return traces


class TestSubsetSuite:
    @pytest.fixture(scope="class")
    def result(self, corpus):
        return subset_suite(corpus, CFG, runtime=Runtime())

    def test_per_game_results(self, result, corpus):
        assert set(result.game_results) == set(corpus)
        assert set(result.validations) == set(corpus)

    def test_cost_reduction_substantial(self, result):
        assert 0.5 < result.suite_cost_reduction < 1.0
        assert result.total_subset_draws < result.total_parent_draws

    def test_validations_pass(self, result):
        assert result.all_validations_passed

    def test_report_renders(self, result):
        text = result.report()
        assert "Suite subsetting" in text
        assert "reduction" in text
        assert "bioshock1_like" in text

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            subset_suite({}, CFG, runtime=Runtime())

    def test_accounting_consistent(self, result):
        total = sum(
            r.subset.parent_num_draws for r in result.game_results.values()
        )
        assert result.total_parent_draws == total
