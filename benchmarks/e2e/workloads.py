"""The benchmark's three workloads: how each input is made, run and checked.

Each workload is one closed-loop operation a pathfinding user repeats:

- ``subset``: the paper's deliverable, ``repro subset`` on a JSON-lines
  trace (ingest and clustering dominate; precompute, store and artifact
  cache start cold, so they only write).
- ``calibrate``: the E3 radius calibration, the pipeline at three radii on
  one runtime over a denser binary trace (clustering dominates; ground
  truth is simulated once and then read back from the artifact cache).
- ``sweep``: architecture pathfinding, a 144-candidate sweep plus the E6
  frequency correlation on two worker processes (cost-model evaluation
  and pool IPC dominate; the precompute store is warmed in set-up, so it
  is read instead of written, and no clustering runs).

Everything here runs inside an op process (see ``op.py``).  Program
functions are called through their modules (``traceio.load_trace_auto``)
so the traced op's hooks, which patch module attributes, see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

import numpy as np

from repro import datasets
from repro.analysis import correlation, sweep
from repro.core import phasedetect, pipeline, subsetting
from repro.gfx import traceio
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig

#: The radii of the E3 calibration: few, paper-default and many draws per
#: cluster, so a clustering change that only wins at one leader density
#: shows a loss at another.
CALIBRATION_RADII = (0.1, 0.21, 0.45)


@dataclass(frozen=True)
class Workload:
    """One workload: its generated input and the operation run on it."""

    name: str
    game: str
    frames: int
    scale: float
    suffix: str
    jobs: int
    #: True when the precompute store is published once in set-up and
    #: shared by every op; False gives each op a fresh, empty store.
    shared_store: bool
    quick_frames: int
    quick_scale: float
    execute: Callable[[Path, Runtime], Any]
    summarize: Callable[[Any], Tuple[str, Dict[str, float]]]

    def size(self, quick: bool) -> Tuple[int, float]:
        """(frames, scale) of the generated trace."""
        if quick:
            return self.quick_frames, self.quick_scale
        return self.frames, self.scale

    def input_path(self, input_dir: Path) -> Path:
        return input_dir / f"input{self.suffix}"


def _digest(parts: Iterable[Tuple[str, Any]]) -> str:
    """sha256 over labelled arrays (dtype, shape, bytes) and reprs."""
    h = hashlib.sha256()
    for label, value in parts:
        h.update(label.encode())
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _pipeline_parts(tag: str, result: pipeline.PipelineResult) -> Iterator[Tuple[str, Any]]:
    for i, clustering in enumerate(result.clusterings):
        yield f"{tag}.labels.{i}", clustering.labels
        yield f"{tag}.representatives.{i}", clustering.representatives
        yield f"{tag}.weights.{i}", clustering.weights
    yield f"{tag}.phase_ids", result.detection.phase_ids
    yield from _subset_parts(tag, result.subset)
    yield f"{tag}.e1_e2", (
        result.mean_prediction_error,
        result.mean_isolated_error,
        result.mean_efficiency,
        result.mean_outlier_rate,
        result.actual_total_time_ns,
        result.subset_estimated_total_time_ns,
        result.combined_draw_fraction,
    )


def _subset_parts(tag: str, subset: subsetting.WorkloadSubset) -> Iterator[Tuple[str, Any]]:
    yield f"{tag}.subset.positions", subset.frame_positions
    yield f"{tag}.subset.weights", subset.frame_weights


def _fidelity(result: pipeline.PipelineResult) -> Dict[str, float]:
    return {
        "e1_error_pct": 100.0 * result.mean_prediction_error,
        "e1_efficiency_pct": 100.0 * result.mean_efficiency,
        "e2_outlier_pct": 100.0 * result.mean_outlier_rate,
        "subset_draw_pct": 100.0 * result.combined_draw_fraction,
    }


def _mainstream() -> GpuConfig:
    return GpuConfig.preset("mainstream")


# -- subset -----------------------------------------------------------------


def _run_subset(path: Path, runtime: Runtime) -> pipeline.PipelineResult:
    trace = traceio.load_trace_auto(path)
    return pipeline.SubsettingPipeline().run(
        trace, _mainstream(), keep_clusterings=True, runtime=runtime
    )


def _summarize_subset(result: pipeline.PipelineResult) -> Tuple[str, Dict[str, float]]:
    return _digest(_pipeline_parts("subset", result)), _fidelity(result)


# -- calibrate --------------------------------------------------------------


def _run_calibrate(path: Path, runtime: Runtime) -> Tuple[pipeline.PipelineResult, ...]:
    trace = traceio.load_trace_auto(path)
    config = _mainstream()
    return tuple(
        pipeline.SubsettingPipeline(radius=radius).run(
            trace, config, keep_clusterings=True, runtime=runtime
        )
        for radius in CALIBRATION_RADII
    )


def _summarize_calibrate(
    results: Tuple[pipeline.PipelineResult, ...]
) -> Tuple[str, Dict[str, float]]:
    parts = (
        part
        for radius, result in zip(CALIBRATION_RADII, results)
        for part in _pipeline_parts(f"r{radius}", result)
    )
    default = results[CALIBRATION_RADII.index(0.21)]
    return _digest(parts), _fidelity(default)


# -- sweep ------------------------------------------------------------------


def sweep_candidates() -> Tuple[GpuConfig, ...]:
    """The 144-point design space around ``mainstream``."""
    base = _mainstream()
    return tuple(
        base.scaled(
            name=f"c{cores}-tex{tex_kb}-bw{bandwidth}-{clock}MHz",
            num_shader_cores=cores,
            tex_cache_kb=tex_kb,
            dram_bytes_per_mem_cycle=float(bandwidth),
            core_clock_mhz=float(clock),
        )
        for cores in (4, 8, 12, 16)
        for tex_kb in (64, 128, 256, 512)
        for bandwidth in (32, 64, 96)
        for clock in (800, 1200, 1600)
    )


def _run_sweep(path: Path, runtime: Runtime) -> tuple:
    trace = traceio.load_trace_auto(path)
    detection = phasedetect.detect_phases(trace)
    subset = subsetting.build_subset(trace, detection)
    paths = sweep.pathfinding_sweep(trace, subset, sweep_candidates(), runtime=runtime)
    curve = correlation.subset_parent_correlation(
        trace, subset, _mainstream(), runtime=runtime
    )
    return subset, paths, curve


def _summarize_sweep(result: tuple) -> Tuple[str, Dict[str, float]]:
    subset, paths, curve = result
    parts = [
        ("sweep.phase_ids", subset.detection.phase_ids),
        *_subset_parts("sweep", subset),
        ("sweep.parent_times", paths.parent_times_ns),
        ("sweep.subset_times", paths.subset_estimated_times_ns),
        ("e6.parent_times", curve.parent_times_ns),
        ("e6.subset_times", curve.subset_estimated_times_ns),
    ]
    fidelity = {
        "rank_agreement": paths.ranking_agreement,
        "e6_corr": curve.correlation,
    }
    return _digest(parts), fidelity


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="subset", game="bioshock1_like", frames=60, scale=1.0,
            suffix=".jsonl", jobs=1, shared_store=False,
            quick_frames=12, quick_scale=0.25,
            execute=_run_subset, summarize=_summarize_subset,
        ),
        Workload(
            name="calibrate", game="bioshock_infinite_like", frames=20, scale=1.0,
            suffix=".rpb", jobs=1, shared_store=False,
            quick_frames=8, quick_scale=0.25,
            execute=_run_calibrate, summarize=_summarize_calibrate,
        ),
        Workload(
            name="sweep", game="bioshock2_like", frames=60, scale=0.5,
            suffix=".rpb", jobs=2, shared_store=True,
            quick_frames=12, quick_scale=0.25,
            execute=_run_sweep, summarize=_summarize_sweep,
        ),
    )
}


def generate(workload: Workload, seed: int, quick: bool, input_dir: Path) -> Any:
    """Write the workload's input trace for ``seed``; returns the trace."""
    frames, scale = workload.size(quick)
    trace = datasets.load(workload.game, frames=frames, seed=seed, scale=scale)
    input_dir.mkdir(parents=True, exist_ok=True)
    traceio.save_trace_auto(trace, workload.input_path(input_dir))
    return trace
