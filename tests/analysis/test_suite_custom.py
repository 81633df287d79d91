"""Suite runs with non-default pipelines and mixed validation outcomes."""

from repro.analysis.suite import subset_suite
from repro.core.pipeline import SubsettingPipeline
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


def corpus_of_one():
    profile = GameProfile.preset("bioshock1_like").scaled(0.06)
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
        )
    )
    return {"b1": TraceGenerator(profile, seed=91).generate(script=script)}


class TestSuiteCustomPipeline:
    def test_custom_pipeline_respected(self):
        tight = SubsettingPipeline(radius=0.05)
        loose = SubsettingPipeline(radius=1.0)
        tight_result = subset_suite(corpus_of_one(), CFG, pipeline=tight, runtime=Runtime())
        loose_result = subset_suite(corpus_of_one(), CFG, pipeline=loose, runtime=Runtime())
        tight_eff = tight_result.game_results["b1"].mean_efficiency
        loose_eff = loose_result.game_results["b1"].mean_efficiency
        assert loose_eff > tight_eff
        # Looser clustering simulates fewer draws per candidate.
        assert loose_result.total_subset_draws < tight_result.total_subset_draws

    def test_suite_report_verdict_line(self):
        result = subset_suite(corpus_of_one(), CFG, runtime=Runtime())
        text = result.report()
        assert "all subsets validated:" in text
        assert ("yes" in text.rsplit("validated:", 1)[1]) == (
            result.all_validations_passed
        )
