"""Golden result: one seeded corpus through the whole methodology.

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
from repro.analysis.experiments import e9_cross_architecture_transfer
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_combined_subset
from repro.simgpu.batch import simulate_trace_multi
from repro.simgpu.config import GpuConfig

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GAME = "bioshock1_like"
FRAMES = 24
SEED = 3
PRESETS = ("lowpower", "mainstream", "highend")


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


def compute_digests() -> Dict[str, str]:
    """Section name -> sha256 of the golden corpus's results."""
    trace = datasets.load(GAME, frames=FRAMES, seed=SEED, scale=1.0)
    mainstream = GpuConfig.preset("mainstream")
    result = SubsettingPipeline().run(trace, mainstream, keep_clusterings=True)
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
        (res.config_name, np.asarray(res.frame_times_ns))
        for res in simulate_trace_multi(trace, presets)
    ]
    e9 = e9_cross_architecture_transfer({trace.name: trace}, PRESETS)
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
            [("highend", combined.estimate_on_config(GpuConfig.preset("highend")))]
        ),
    }


def test_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_digests() == golden["sha256"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "input": {"game": GAME, "frames": FRAMES, "seed": SEED, "scale": 1.0},
                "sha256": compute_digests(),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
