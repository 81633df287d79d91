"""repro.obs — observability for the pipeline, runtime, and simulator.

Pathfinding at scale fans thousands of frame simulations over a process
pool; this subsystem makes those runs explainable:

- :mod:`repro.obs.spans` — hierarchical span tracing
  (pipeline -> stage -> task -> frame), with worker-recorded spans
  merged back into the parent's timeline;
- :mod:`repro.obs.metrics` — labeled counters, gauges, and fixed-bucket
  histograms (``frames_simulated{phase=...}``, stage and per-kind task
  wall time, cache lookup latency, cluster sizes);
- :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and span JSONL;
- :mod:`repro.obs.manifest` — ``run.json`` reproducibility manifests
  (config/trace digests, seeds, CLI args, package version, host);
- :mod:`repro.obs.context` — the (tracer, metrics) bundle one run
  records through, held ambient so deep call sites (simgpu kernels,
  task functions) need no plumbing;
- :mod:`repro.obs.logjson` — structured JSON-lines logging for the CLI;
- :mod:`repro.obs.history` — the append-only run store under
  ``.repro/runs/`` every CLI run and benchmark appends to;
- :mod:`repro.obs.analyze` — statistical perf-regression gates over
  run-store windows and span-rollup hotspot profiling;
- :mod:`repro.obs.progress` — live progress/heartbeat telemetry for
  long-running task fan-outs (``--progress``).

The disabled path is the default and costs essentially nothing: the
:data:`~repro.obs.spans.NULL_TRACER` turns every span into a shared
no-op context manager.  The runtime records through one
:class:`~repro.obs.context.ObsContext` (``runtime.tracer`` and
``runtime.metrics``); there is no second bundle.

See ``docs/OBSERVABILITY.md`` for the span model, metric naming
conventions, and how to open a trace in Perfetto.
"""

from repro.obs.artifacts import (
    ARTIFACTS_VERSION,
    artifact_link,
    artifacts_dir_for,
    load_artifacts,
    pipeline_artifact_sections,
    read_index,
    sweep_artifact_sections,
    write_artifacts,
)
from repro.obs.analyze import (
    RegressionReport,
    SpanRollup,
    compare_to_baseline,
    render_regressions,
    rollup_spans,
)
from repro.obs.context import ObsContext, activate_obs, current_obs, current_tracer
from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.history import (
    RUN_STORE_VERSION,
    RunRecord,
    RunStore,
    new_run_id,
    record_run,
)
from repro.obs.logjson import JsonLogger, NullLogger
from repro.obs.manifest import MANIFEST_VERSION, RunManifest, load_manifest
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HistogramSnapshot,
    Metrics,
    MetricsSnapshot,
    label_key,
)
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.obs.spans import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "ARTIFACTS_VERSION",
    "DEFAULT_BUCKETS",
    "HistogramSnapshot",
    "JsonLogger",
    "MANIFEST_VERSION",
    "Metrics",
    "MetricsSnapshot",
    "NULL_PROGRESS",
    "NULL_TRACER",
    "NullLogger",
    "NullProgress",
    "NullTracer",
    "ObsContext",
    "ProgressReporter",
    "RUN_STORE_VERSION",
    "RegressionReport",
    "RunManifest",
    "RunRecord",
    "RunStore",
    "Span",
    "SpanRollup",
    "Tracer",
    "activate_obs",
    "artifact_link",
    "artifacts_dir_for",
    "chrome_trace_document",
    "chrome_trace_events",
    "compare_to_baseline",
    "current_obs",
    "current_tracer",
    "label_key",
    "load_artifacts",
    "load_manifest",
    "new_run_id",
    "pipeline_artifact_sections",
    "read_index",
    "record_run",
    "render_regressions",
    "rollup_spans",
    "sweep_artifact_sections",
    "validate_chrome_trace",
    "write_artifacts",
    "write_chrome_trace",
    "write_spans_jsonl",
]
