"""Content-addressed artifact sidecars next to run records.

The run store records *that* a pipeline ran and how fast; this module
records *why its subset is representative*: the standardized feature
matrices the clustering saw, the per-frame cluster assignments and
representative draw ids, the per-phase weights, and the
predicted-vs-measured metrics behind the paper's E1/E2 fidelity claims.
Those were computed anyway and then thrown away — the sidecar keeps
them, so the dashboard's cluster scatter and fidelity views can show
the printed report's exact numbers instead of recomputing (or worse,
re-simulating) anything.

Layout: one directory per run next to its record::

    .repro/runs/
      00000000000000000-3f2a9c.json            # the run record
      3f2a9c.artifacts/                        # this module's sidecar
        index.json                             # section -> file map
        clusters-4fd1f39e06c2a51b.json         # content-addressed body
        fidelity-9ab04c77d31e02f4.json
        subset-0d7f6cc8e91b3a55.json

Every file lands through :func:`repro.util.atomicfile.write_atomic`, so
readers only ever see whole files.  Section bodies are named by their
content digest, so rewriting one replaces it with identical bytes; the
``index.json`` is the one mutable summary and is written last.  The run
record itself is never touched: the link is computed *before*
:func:`~repro.obs.history.append_run` appends it.

Section *builders* (which need the trace and simulation results) import
the core/simgpu layers lazily; readers are pure stdlib+json, so the
dashboard layer can load sidecars without crossing the OBS002 line.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ValidationError
from repro.util.atomicfile import write_atomic

#: Bump when the sidecar layout or section schemas change meaning.
ARTIFACTS_VERSION = 1

#: Directory suffix: ``<run_id>.artifacts`` next to the record file.
ARTIFACTS_SUFFIX = ".artifacts"

#: Hex digits of the body digest kept in the filename.
_DIGEST_CHARS = 16


def artifacts_dir_for(store_root: Union[str, Path], run_id: str) -> Path:
    """The sidecar directory of ``run_id`` under ``store_root``."""
    return Path(store_root) / f"{run_id}{ARTIFACTS_SUFFIX}"


def _encode(section: Any) -> bytes:
    # Compact: the clusters section of a 60-frame subset run is about
    # 17 MB this way against 28 MB pretty-printed, and encodes in under
    # half the time.
    return (
        json.dumps(section, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def write_artifacts(
    store_root: Union[str, Path],
    run_id: str,
    sections: Mapping[str, Any],
) -> Dict[str, Any]:
    """Write ``sections`` as ``run_id``'s sidecar; returns the link dict.

    Each section body is serialized, digested, and written as
    ``<name>-<sha256[:16]>.json``; a colliding filename means identical
    bytes already on disk, so rewriting it is invisible to readers.
    The index is replaced atomically last, so a crash mid-write leaves
    either the previous complete sidecar or orphaned (harmless,
    content-addressed) body files — never a torn body or index.

    The returned link is what :func:`~repro.obs.history.append_run`
    embeds in the record's ``extra["artifacts"]``; it carries the
    directory name (relative to the store root), the section inventory,
    and the index digest, so a record can vouch for its sidecar.
    """
    directory = artifacts_dir_for(store_root, run_id)
    directory.mkdir(parents=True, exist_ok=True)
    index_files: Dict[str, Dict[str, Any]] = {}
    for name in sorted(sections):
        body = _encode(sections[name])
        digest = hashlib.sha256(body).hexdigest()
        filename = f"{name}-{digest[:_DIGEST_CHARS]}.json"
        write_atomic(directory / filename, body)
        index_files[name] = {
            "file": filename,
            "sha256": digest,
            "bytes": len(body),
        }
    index = {
        "artifacts_version": ARTIFACTS_VERSION,
        "run_id": run_id,
        "sections": index_files,
    }
    index_bytes = _encode(index)
    write_atomic(directory / "index.json", index_bytes)
    return {
        "dir": directory.name,
        "sections": sorted(index_files),
        "index_sha256": hashlib.sha256(index_bytes).hexdigest(),
    }


def read_index(directory: Union[str, Path]) -> Dict[str, Any]:
    """The sidecar's index document; raises on absent/foreign sidecars."""
    path = Path(directory) / "index.json"
    try:
        with open(path, "r", encoding="utf-8") as stream:
            index = json.load(stream)
    except FileNotFoundError:
        raise ValidationError(
            f"run has no artifact sidecar at {Path(directory).name}/ "
            "(re-run the pipeline with this build to produce one)"
        ) from None
    except (OSError, ValueError) as exc:
        raise ValidationError(f"unreadable artifact index {path}: {exc}") from None
    version = index.get("artifacts_version")
    if version != ARTIFACTS_VERSION:
        raise ValidationError(
            f"unsupported artifact sidecar version {version!r} "
            f"(this build reads version {ARTIFACTS_VERSION})"
        )
    return index


def load_section(
    directory: Union[str, Path], name: str
) -> Any:
    """One section body, verified against its recorded digest."""
    index = read_index(directory)
    entry = index.get("sections", {}).get(name)
    if entry is None:
        have = ", ".join(sorted(index.get("sections", {}))) or "none"
        raise ValidationError(
            f"artifact sidecar has no {name!r} section (have: {have})"
        )
    path = Path(directory) / str(entry["file"])
    try:
        body = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"unreadable artifact body {path}: {exc}") from None
    digest = hashlib.sha256(body).hexdigest()
    if digest != entry.get("sha256"):
        raise ValidationError(
            f"artifact body {path.name} digest mismatch "
            "(sidecar corrupted; delete the directory and re-run)"
        )
    return json.loads(body.decode("utf-8"))


def load_artifacts(directory: Union[str, Path]) -> Dict[str, Any]:
    """Every section of a sidecar, keyed by section name."""
    index = read_index(directory)
    return {
        name: load_section(directory, name)
        for name in sorted(index.get("sections", {}))
    }


# -- section builders (lazy core imports; not for dashboard code) -----------


def pipeline_artifact_sections(result: Any, trace: Any) -> Dict[str, Any]:
    """Sidecar sections for one :class:`~repro.core.pipeline.PipelineResult`.

    Requires ``result.clusterings`` (run the pipeline with
    ``keep_clusterings=True``); returns ``{}`` otherwise, so callers can
    pass whatever they have and only complete runs produce sidecars.
    The fidelity section stores the *same floats* ``result.report()``
    prints — the dashboard's E1/E2 must match the printed report
    exactly, so they are serialized once here, not recomputed.
    """
    if getattr(result, "clusterings", None) is None:
        return {}
    from repro.core.features import FEATURE_NAMES, FeatureExtractor
    from repro.core.normalize import Normalizer

    extractor = FeatureExtractor(trace)
    frames: List[Dict[str, Any]] = []
    for frame, clustering in zip(trace.frames, result.clusterings):
        matrix = Normalizer("zscore").fit_transform(
            extractor.frame_matrix(frame)
        )
        frames.append(
            {
                "frame": int(frame.index),
                "num_draws": int(clustering.num_draws),
                "num_clusters": int(clustering.num_clusters),
                "labels": [int(v) for v in clustering.labels],
                "representatives": [
                    int(v) for v in clustering.representatives
                ],
                "weights": [float(v) for v in clustering.weights],
                "features": [
                    [float(v) for v in row] for row in matrix
                ],
            }
        )
    clusters = {
        "feature_names": list(FEATURE_NAMES),
        "normalize": "zscore",
        "frames": frames,
    }

    predictions = [
        {
            "frame": int(p.frame_index),
            "actual_time_ns": float(p.actual_time_ns),
            "predicted_time_ns": float(p.predicted_time_ns),
            "isolated_time_ns": float(p.isolated_time_ns),
            "error": float(p.error),
            "isolated_error": float(p.isolated_error),
            "efficiency": float(p.efficiency),
            "num_draws": int(p.num_draws),
            "num_clusters": int(p.num_clusters),
            "outlier_rate": float(p.outlier_rate),
        }
        for p in result.frame_predictions
    ]
    fidelity = {
        "trace": result.trace_name,
        "config": result.config_name,
        "frames": predictions,
        "summary": {
            "mean_prediction_error": float(result.mean_prediction_error),
            "mean_isolated_error": float(result.mean_isolated_error),
            "mean_efficiency": float(result.mean_efficiency),
            "mean_outlier_rate": float(result.mean_outlier_rate),
            "subset_time_error": float(result.subset_time_error),
            "actual_total_time_ns": float(result.actual_total_time_ns),
            "subset_estimated_total_time_ns": float(
                result.subset_estimated_total_time_ns
            ),
            "combined_draw_fraction": float(result.combined_draw_fraction),
        },
    }

    detection = result.detection
    subset = result.subset
    subset_section = {
        "frame_positions": [int(p) for p in subset.frame_positions],
        "frame_weights": [float(w) for w in subset.frame_weights],
        "frame_fraction": float(subset.frame_fraction),
        "draw_fraction": float(subset.draw_fraction),
        "parent_num_frames": int(subset.parent_num_frames),
        "parent_num_draws": int(subset.parent_num_draws),
        "phases": {
            "num_phases": int(detection.num_phases),
            "num_intervals": int(detection.num_intervals),
            "interval_length": int(detection.interval_length),
            "phase_ids": [int(p) for p in detection.phase_ids],
            "intervals": [
                {"index": iv.index, "start": iv.start, "end": iv.end}
                for iv in detection.intervals
            ],
        },
    }
    return {
        "clusters": clusters,
        "fidelity": fidelity,
        "subset": subset_section,
    }


def sweep_artifact_sections(result: Any) -> Dict[str, Any]:
    """Sidecar sections for a pathfinding-sweep result.

    The sweep's fidelity evidence is per-config: predicted-vs-measured
    total times over the candidate configurations, plus the ranking
    agreement the paper's pathfinding claim rests on.
    """
    return {
        "sweep": {
            "configs": [
                {
                    "config": str(name),
                    "parent_time_ns": float(parent),
                    "subset_estimated_time_ns": float(estimate),
                    "error": (
                        abs(float(estimate) - float(parent)) / float(parent)
                        if parent
                        else 0.0
                    ),
                }
                for name, parent, estimate in zip(
                    result.config_names,
                    result.parent_times_ns,
                    result.subset_estimated_times_ns,
                )
            ],
            "ranking_agreement": float(result.ranking_agreement),
            "winner_agrees": bool(result.winner_agrees()),
        }
    }


def artifact_link(record_extra: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The ``extra["artifacts"]`` link of a record, if present and sane."""
    link = record_extra.get("artifacts")
    if not isinstance(link, Mapping) or "dir" not in link:
        return None
    return dict(link)
