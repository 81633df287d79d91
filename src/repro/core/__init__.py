"""The paper's contribution: 3D workload subsetting.

Two composable reductions:

1. **Intra-frame** — :mod:`repro.core.features` extracts micro-architecture-
   independent characteristics per draw-call; :mod:`repro.core.cluster_frame`
   groups draws by similarity; :mod:`repro.core.predict` estimates frame
   performance from one simulated representative per cluster; and
   :func:`repro.core.pipeline.score_frame` scores each frame's prediction
   error, clustering efficiency and cluster-outlier rate with the
   :mod:`repro.core.metrics` errors (experiments E1-E3).

2. **Inter-frame** — :mod:`repro.core.shadervector` characterizes frame
   intervals by shader usage; :mod:`repro.core.phasedetect` finds repeating
   phases by signature equality; and :mod:`repro.core.subsetting` keeps one
   representative interval per phase (experiments E4-E6).

:class:`repro.core.pipeline.SubsettingPipeline` runs the whole methodology
end to end and validates the result against the performance model.
"""

from repro.core.calibrate import CalibrationResult, calibrate_radius
from repro.core.cluster_frame import FrameClustering, cluster_frame
from repro.core.features import FEATURE_NAMES, FeatureExtractor
from repro.core.metrics import frame_prediction_error
from repro.core.phasedetect import PhaseDetection, detect_phases
from repro.core.pipeline import PipelineResult, SubsettingPipeline
from repro.core.shadervector import interval_signature, shader_vector
from repro.core.subsetio import load_subset, save_subset
from repro.core.subsetting import (
    CombinedSubset,
    WorkloadSubset,
    build_combined_subset,
    build_subset,
)

__all__ = [
    "FEATURE_NAMES",
    "FeatureExtractor",
    "FrameClustering",
    "cluster_frame",
    "frame_prediction_error",
    "shader_vector",
    "interval_signature",
    "PhaseDetection",
    "detect_phases",
    "WorkloadSubset",
    "build_subset",
    "CombinedSubset",
    "build_combined_subset",
    "save_subset",
    "load_subset",
    "calibrate_radius",
    "CalibrationResult",
    "SubsettingPipeline",
    "PipelineResult",
]
