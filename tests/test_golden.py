"""Golden result: one seeded corpus through the whole methodology (E9 and
E10 included), and the experiment rows (E1, E2, E3, E8, radius
calibration) on a smaller one.

Every refactor of clustering, subsetting or the cost model must reproduce
these digests byte for byte.  Each section is a sha256 over labelled
arrays (dtype, shape, raw bytes) and the ``repr`` of floats and rows, so
a difference in the last bit of any value changes it.

If a change alters results on purpose, recompute the digests with
``python tests/test_golden.py`` (run with ``PYTHONPATH=src``) and record
the reason for the bump in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Tuple

import numpy as np

from repro import datasets
from repro.analysis.experiments import (
    e1_clustering_accuracy,
    e2_cluster_outliers,
    e3_error_efficiency_tradeoff,
    e8_baselines,
    e9_cross_architecture_transfer,
    e10_phase_signal_stability,
    incremental_clustering_metrics,
)
from repro.core.calibrate import calibrate_radius
from repro.core.perfphase import pass_time_matrix
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_combined_subset
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GAME = "bioshock1_like"
FRAMES = 24
SEED = 3
PRESETS = ("lowpower", "mainstream", "highend")

#: The experiment rows are scored on a smaller corpus of the same game.
EXPERIMENTS_FRAMES = 12
EXPERIMENTS_SCALE = 0.5
E3_RADII = (0.1, 0.21, 0.45)


def _sha256(parts: Iterable[Tuple[str, Any]]) -> str:
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


def _plain(value: Any) -> Any:
    """``value`` with numpy scalars as Python ones, so a repr is the same
    on every numpy version."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return tuple(_plain(item) for item in value)
    return value


def experiment_digest() -> str:
    """sha256 over the rows E1, E2, E3 and E8 report, the incremental
    ablation's per-frame scores and two radius calibrations.

    E7's k-means and agglomerative rows stay out: their bits may differ
    between numpy versions.
    """
    trace = datasets.load(
        GAME, frames=EXPERIMENTS_FRAMES, seed=SEED, scale=EXPERIMENTS_SCALE
    )
    mainstream = GpuConfig.preset("mainstream")
    traces = {trace.name: trace}
    incremental = incremental_clustering_metrics(
        trace, Runtime.serial().simulate_frames(trace, mainstream)
    )
    parts = [
        ("e1", e1_clustering_accuracy(traces, mainstream, runtime=Runtime()).rows),
        ("e2", e2_cluster_outliers(traces, mainstream, runtime=Runtime()).rows),
        ("e3", e3_error_efficiency_tradeoff(trace, mainstream, E3_RADII, runtime=Runtime()).rows),
        ("e8", e8_baselines(trace, mainstream, runtime=Runtime()).rows),
        (
            "incremental",
            [(m.error, m.efficiency, m.outlier_rate, m.num_clusters) for m in incremental],
        ),
    ]
    for label, objective in (
        ("target_efficiency", {"target_efficiency": 0.6}),
        ("max_error", {"max_error": 0.01}),
    ):
        result = calibrate_radius(trace, mainstream, **objective, runtime=Runtime())
        parts.append(
            (
                f"calibrate.{label}",
                [result.radius]
                + [(p.radius, p.mean_error, p.mean_efficiency) for p in result.history],
            )
        )
    return _sha256((label, _plain(value)) for label, value in parts)


def compute_digests() -> Dict[str, str]:
    """Section name -> sha256 of the golden corpus's results."""
    trace = datasets.load(GAME, frames=FRAMES, seed=SEED, scale=1.0)
    mainstream = GpuConfig.preset("mainstream")
    result = SubsettingPipeline().run(trace, mainstream, keep_clusterings=True, runtime=Runtime())
    clusterings = result.clusterings
    assert clusterings is not None

    clustering_parts = []
    for i, clustering in enumerate(clusterings):
        clustering_parts += [
            (f"labels.{i}", clustering.labels),
            (f"representatives.{i}", clustering.representatives),
            (f"weights.{i}", clustering.weights),
        ]
    e1_e2 = (
        result.mean_prediction_error,
        result.mean_isolated_error,
        result.mean_efficiency,
        result.mean_outlier_rate,
        result.actual_total_time_ns,
        result.subset_estimated_total_time_ns,
        result.combined_draw_fraction,
    )
    presets = [GpuConfig.preset(name) for name in PRESETS]
    preset_parts = [
        (config.name, np.asarray([out.time_ns for out in outputs]))
        for config, outputs in zip(presets, Runtime.serial().simulate_frames_many(trace, presets))
    ]
    e9 = e9_cross_architecture_transfer({trace.name: trace}, PRESETS, runtime=Runtime())
    e10 = e10_phase_signal_stability({trace.name: trace}, runtime=Runtime())
    combined = build_combined_subset(trace, result.subset, clusterings)

    return {
        "clusterings": _sha256(clustering_parts),
        "phase_ids": _sha256([("phase_ids", result.detection.phase_ids)]),
        "subset": _sha256(
            [
                ("positions", result.subset.frame_positions),
                ("weights", result.subset.frame_weights),
            ]
        ),
        "e1_e2": _sha256([("e1_e2", e1_e2)]),
        "preset_times": _sha256(preset_parts),
        "e9_rows": _sha256([("rows", e9.rows)]),
        "combined_estimate": _sha256(
            [("highend", combined.estimate_on_config(GpuConfig.preset("highend"), Runtime()))]
        ),
        "e10": _sha256(
            [("rows", _plain(e10.rows))]
            + [
                (name, pass_time_matrix(trace, GpuConfig.preset(name), runtime=Runtime()))
                for name in ("lowpower", "highend")
            ]
        ),
        "experiments": experiment_digest(),
    }


def test_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_digests() == golden["sha256"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "input": {"game": GAME, "frames": FRAMES, "seed": SEED, "scale": 1.0},
                "experiments_input": {
                    "game": GAME,
                    "frames": EXPERIMENTS_FRAMES,
                    "seed": SEED,
                    "scale": EXPERIMENTS_SCALE,
                },
                "sha256": compute_digests(),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
