"""Suite-level subsetting: the whole corpus, one report.

Pathfinding evaluates a *suite* of games, not one.  This module runs the
full methodology per game, validates every subset, and accounts for the
aggregate simulation-cost reduction: how many draw-calls must actually
be simulated per architecture candidate, before vs after subsetting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.validation import SubsetValidation, validate_subset
from repro.core.pipeline import PipelineResult, SubsettingPipeline
from repro.errors import ValidationError
from repro.gfx.trace import Trace
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.engine import Runtime, summary_line
from repro.simgpu.config import GpuConfig
from repro.util.tables import format_table


@dataclass(frozen=True)
class SuiteResult:
    """Per-game pipeline results plus corpus-level accounting."""

    config_name: str
    game_results: Dict[str, PipelineResult]
    validations: Dict[str, SubsetValidation]
    telemetry: Optional[MetricsSnapshot] = field(default=None, compare=False)

    @property
    def total_parent_draws(self) -> int:
        return sum(
            r.subset.parent_num_draws for r in self.game_results.values()
        )

    @property
    def total_subset_draws(self) -> int:
        """Draws to simulate per candidate: clustered reps of kept frames."""
        return sum(
            round(r.combined_draw_fraction * r.subset.parent_num_draws)
            for r in self.game_results.values()
        )

    @property
    def suite_cost_reduction(self) -> float:
        """Fraction of per-candidate simulation work eliminated."""
        return 1.0 - self.total_subset_draws / self.total_parent_draws

    @property
    def all_validations_passed(self) -> bool:
        return all(v.passed for v in self.validations.values())

    def report(self) -> str:
        rows = []
        for name, result in self.game_results.items():
            validation = self.validations[name]
            rows.append(
                [
                    name,
                    result.subset.parent_num_draws,
                    100.0 * result.mean_prediction_error,
                    100.0 * result.mean_efficiency,
                    100.0 * result.combined_draw_fraction,
                    validation.passed,
                ]
            )
        table = format_table(
            [
                "game",
                "draws",
                "pred err %",
                "efficiency %",
                "subset %",
                "validated",
            ],
            rows,
            title=f"Suite subsetting on {self.config_name}",
            precision=2,
        )
        summary = (
            f"suite: {self.total_parent_draws} draws -> "
            f"{self.total_subset_draws} to simulate per candidate "
            f"({100 * self.suite_cost_reduction:.1f}% reduction); "
            f"all subsets validated: "
            f"{'yes' if self.all_validations_passed else 'NO'}"
        )
        if self.telemetry is not None:
            summary = f"{summary}\n{summary_line(self.telemetry)}"
        return f"{table}\n{summary}"


def subset_suite(
    traces: Dict[str, Trace],
    config: GpuConfig,
    pipeline: Optional[SubsettingPipeline] = None,
    validation_clocks: Sequence[float] = (600.0, 1000.0, 1400.0),
    runtime: Optional[Runtime] = None,
) -> SuiteResult:
    """Run the methodology and validation across a corpus.

    One ``runtime`` spans every game: its metrics aggregate the whole
    suite, and with a cache attached a re-run (or a second suite sharing
    games) skips every already-simulated (trace, config) row.
    """
    if not traces:
        raise ValidationError("traces must be non-empty")
    if pipeline is None:
        pipeline = SubsettingPipeline()
    if runtime is None:
        runtime = Runtime.serial()
    game_results: Dict[str, PipelineResult] = {}
    validations: Dict[str, SubsetValidation] = {}
    with runtime.tracer.span("suite", category="suite", config=config.name):
        for name, trace in traces.items():
            with runtime.tracer.span("suite.game", category="suite", game=name):
                result = pipeline.run(trace, config, runtime=runtime)
                game_results[name] = result
                validations[name] = validate_subset(
                    trace,
                    result.subset,
                    config,
                    validation_clocks,
                    runtime=runtime,
                )
    return SuiteResult(
        config_name=config.name,
        game_results=game_results,
        validations=validations,
        telemetry=runtime.metrics.snapshot(),
    )
