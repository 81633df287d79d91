"""Holistic subset validation: should this subset be trusted?

Before a pathfinding team adopts a subset for months of studies, it must
clear three bars, all from the paper's validation logic:

1. **Frequency scaling** — the subset's improvement curve correlates
   with the parent's (the paper's r >= 0.997 criterion).
2. **Cross-architecture transfer** — total-time estimates stay accurate
   on every candidate class, not just the one used for extraction.
3. **Ranking fidelity** — evaluating a candidate set on the subset picks
   the same winner and ordering as the full workload.

:func:`validate_subset` runs all three and returns a verdict object with
per-check numbers, thresholds, and an overall pass/fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.correlation import DEFAULT_CLOCKS_MHZ, subset_parent_correlation
from repro.analysis.sweep import (
    default_candidates,
    parent_and_subset_times,
    pathfinding_sweep,
)
from repro.core.subsetting import WorkloadSubset
from repro.gfx.trace import Trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.util.tables import format_table


@dataclass(frozen=True)
class CheckResult:
    """One validation check: measured value vs its acceptance threshold."""

    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SubsetValidation:
    """The full validation verdict for one subset."""

    trace_name: str
    subset_method: str
    subset_frame_fraction: float
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def report(self) -> str:
        rows = [
            [c.name, c.measured, c.threshold, c.passed, c.detail]
            for c in self.checks
        ]
        table = format_table(
            ["check", "measured", "threshold", "pass", "detail"],
            rows,
            title=(
                f"Subset validation: {self.trace_name} "
                f"({self.subset_method}, "
                f"{100 * self.subset_frame_fraction:.1f}% of frames)"
            ),
            precision=4,
        )
        verdict = "VERDICT: PASS" if self.passed else "VERDICT: FAIL"
        return f"{table}\n{verdict}"


# Acceptance thresholds; the correlation bar is the paper's.
CORRELATION_THRESHOLD = 0.997
TRANSFER_ERROR_THRESHOLD = 0.08
RANKING_THRESHOLD = 0.9


def validate_subset(
    trace: Trace,
    subset: WorkloadSubset,
    base_config: GpuConfig,
    clocks_mhz: Sequence[float] = DEFAULT_CLOCKS_MHZ,
    candidates: Optional[Sequence[GpuConfig]] = None,
    transfer_presets: Sequence[str] = ("lowpower", "mainstream", "highend"),
    *,
    runtime: Runtime,
) -> SubsetValidation:
    """Run all three validation checks on ``subset`` against ``trace``.

    ``runtime`` is threaded through every check, so the clock sweep, the
    transfer presets, and the candidate sweep all share its workers and
    artifact cache (a preset simulated by one check is free in the next).
    """
    checks = []

    with runtime.tracer.span("validate", category="validate", trace=trace.name):
        correlation = subset_parent_correlation(
            trace, subset, base_config, clocks_mhz, runtime=runtime
        )
        checks.append(
            CheckResult(
                name="frequency-scaling correlation",
                measured=correlation.correlation,
                threshold=CORRELATION_THRESHOLD,
                passed=correlation.correlation >= CORRELATION_THRESHOLD,
                detail=f"max gap {correlation.max_improvement_gap_points:.2f} pts",
            )
        )

        transfer_configs = [
            GpuConfig.preset(preset) for preset in transfer_presets
        ]
        actual_times, estimates = parent_and_subset_times(
            trace, subset, transfer_configs, runtime, "validate"
        )
        worst_error = 0.0
        worst_preset = ""
        for preset, actual, estimate in zip(transfer_presets, actual_times, estimates):
            error = abs(estimate - actual) / actual
            if error > worst_error:
                worst_error = error
                worst_preset = preset
        checks.append(
            CheckResult(
                name="cross-architecture transfer error",
                measured=worst_error,
                threshold=TRANSFER_ERROR_THRESHOLD,
                passed=worst_error <= TRANSFER_ERROR_THRESHOLD,
                detail=f"worst on {worst_preset}",
            )
        )

        sweep = pathfinding_sweep(
            trace,
            subset,
            candidates if candidates is not None else default_candidates(),
            runtime=runtime,
        )
        checks.append(
            CheckResult(
                name="candidate-ranking agreement",
                measured=sweep.ranking_agreement,
                threshold=RANKING_THRESHOLD,
                passed=(
                    sweep.ranking_agreement >= RANKING_THRESHOLD
                    and sweep.winner_agrees()
                ),
                detail=(
                    "winner agrees" if sweep.winner_agrees() else "winner differs"
                ),
            )
        )

    return SubsetValidation(
        trace_name=trace.name,
        subset_method=subset.method,
        subset_frame_fraction=subset.frame_fraction,
        checks=tuple(checks),
    )
