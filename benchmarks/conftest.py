"""Shared fixtures for the benchmark harness.

Benchmarks default to a CI-scale corpus (same three games, same phase
scripts and pass structure, fewer frames and draws).  Set
``REPRO_FULL_SCALE=1`` to run the paper-scale corpus: 717 frames and
~828K draw-calls across the BioShock-like trilogy.

Every bench registers its :class:`ExperimentResult`; the rendered
paper-vs-measured tables are printed in the terminal summary after the
timing table.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro import datasets
from repro.analysis.report import ExperimentResult
from repro.gfx.trace import Trace
from repro.obs.history import record_run
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig

_RESULTS: List[ExperimentResult] = []


def _result_metrics(result: ExperimentResult) -> Dict[str, float]:
    """Numeric cells of a result table as flat gauge series.

    Keyed ``gauge:<row label>:<column header>`` so the run store can
    track a reproduced number (a per-game error percentage, a speedup
    factor) across sessions and ``repro runs regress`` can gate drifting
    accuracy metrics.
    """
    metrics: Dict[str, float] = {}
    for row in result.rows:
        label = str(row[0]).strip() if row else ""
        for header, cell in zip(result.headers[1:], row[1:]):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            key = f"gauge:{label}:{header}".replace(" ", "_")
            metrics[key] = float(cell)
    return metrics


@pytest.fixture(scope="session")
def corpus() -> Dict[str, Trace]:
    """The three-game corpus at bench scale."""
    return datasets.bench_corpus()


@pytest.fixture(scope="session")
def single_game(corpus) -> Trace:
    """One mid-weight game for single-trace experiments."""
    return corpus["bioshock2_like"]


@pytest.fixture(scope="session")
def gpu_config() -> GpuConfig:
    return GpuConfig.preset("mainstream")


@pytest.fixture()
def runtime() -> Runtime:
    """A fresh serial, uncached runtime: each bench simulates all its work."""
    return Runtime()


@pytest.fixture()
def record_result():
    """Register an ExperimentResult for the terminal summary."""

    def _record(result: ExperimentResult) -> ExperimentResult:
        _RESULTS.append(result)
        record_run(
            f"bench:{result.experiment_id}",
            metrics=_result_metrics(result),
            extra={"title": result.title},
        )
        return result

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    scale = "PAPER SCALE" if datasets.full_scale_requested() else (
        f"CI scale ({datasets.CI_FRAMES_PER_GAME} frames/game, "
        f"content x{datasets.CI_SCALE}); set REPRO_FULL_SCALE=1 for the "
        "717-frame / 828K-draw corpus"
    )
    terminalreporter.write_line(f"corpus: {scale}")
    terminalreporter.write_line("")
    for result in sorted(_RESULTS, key=lambda r: r.experiment_id):
        terminalreporter.write_line(result.render())
        terminalreporter.write_line("")
