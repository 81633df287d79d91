"""The totals-only analyses equal the per-draw computation they replaced.

Pathfinding, frequency scaling and the transfer check read frame totals
(``Runtime.frame_times_many``).  The oracle here is the old path kept
as a test: per-frame outputs with per-draw times, parent totals added
left to right, subset estimates from a list of frame times.  Every
number must match it exactly.
"""

import pytest

from repro.analysis.correlation import CorrelationResult, subset_parent_correlation
from repro.analysis.sweep import PathfindingResult, default_candidates, pathfinding_sweep
from repro.analysis.validation import validate_subset
from repro.core.subsetting import build_subset
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")
CLOCKS = (600.0, 1000.0, 1400.0)
PRESETS = ("lowpower", "mainstream", "highend")


@pytest.fixture(scope="module")
def parent_and_subset():
    trace = TraceGenerator(
        GameProfile.preset("bioshock2_like").scaled(0.05), seed=13
    ).generate(num_frames=16)
    return trace, build_subset(trace)


def _oracle_times(trace, subset, configs):
    """(parent totals, subset estimates) from per-draw outputs."""
    runtime = Runtime()
    parent = []
    for outputs in runtime.simulate_frames_many(trace, configs):
        total = 0.0
        for out in outputs:
            total += out.time_ns
        parent.append(total)
    subset_runs = runtime.simulate_frames_many(subset.materialize(trace), configs)
    estimates = [
        subset.estimate_total_time_ns([out.time_ns for out in outputs])
        for outputs in subset_runs
    ]
    return tuple(parent), tuple(estimates)


@pytest.mark.parametrize("jobs", [1, 2])
def test_pathfinding_sweep_matches_oracle(parent_and_subset, jobs, pooled_fan_outs):
    trace, subset = parent_and_subset
    candidates = default_candidates()
    result = pathfinding_sweep(trace, subset, candidates, runtime=Runtime(jobs=jobs))
    parent, estimates = _oracle_times(trace, subset, candidates)
    assert result.parent_times_ns == parent
    assert result.subset_estimated_times_ns == estimates


def test_correlation_matches_oracle(parent_and_subset):
    trace, subset = parent_and_subset
    result = subset_parent_correlation(trace, subset, CFG, CLOCKS, runtime=Runtime())
    configs = [CFG.with_core_clock(clock) for clock in CLOCKS]
    parent, estimates = _oracle_times(trace, subset, configs)
    assert result.parent_times_ns == parent
    assert result.subset_estimated_times_ns == estimates


def test_validate_subset_matches_oracle(parent_and_subset):
    trace, subset = parent_and_subset
    validation = validate_subset(
        trace, subset, CFG, CLOCKS, transfer_presets=PRESETS, runtime=Runtime()
    )
    by_name = {check.name: check for check in validation.checks}

    configs = [CFG.with_core_clock(clock) for clock in CLOCKS]
    curve = CorrelationResult(
        trace.name, subset.method, CLOCKS, *_oracle_times(trace, subset, configs)
    )
    assert by_name["frequency-scaling correlation"].measured == curve.correlation

    parent, estimates = _oracle_times(
        trace, subset, [GpuConfig.preset(preset) for preset in PRESETS]
    )
    errors = [abs(e - a) / a for a, e in zip(parent, estimates)]
    transfer = by_name["cross-architecture transfer error"]
    assert transfer.measured == max(errors)
    assert transfer.detail == f"worst on {PRESETS[errors.index(max(errors))]}"

    candidates = default_candidates()
    sweep = PathfindingResult(
        trace.name,
        tuple(c.name for c in candidates),
        *_oracle_times(trace, subset, candidates),
    )
    assert by_name["candidate-ranking agreement"].measured == sweep.ranking_agreement
