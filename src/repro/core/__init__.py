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
