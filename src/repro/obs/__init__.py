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
- :mod:`repro.obs.context` — the (tracer, metrics) bundle one run
  records through, held ambient so deep call sites (simgpu kernels,
  task functions) need no plumbing;
- :mod:`repro.obs.logjson` — structured JSON-lines logging for the CLI;
- :mod:`repro.obs.history` — the append-only run store under
  ``.repro/runs/`` every CLI run and benchmark appends to: one
  :class:`~repro.obs.history.RunRecord` per run (seeds, config/trace
  digests, argv, environment, flattened metrics, stage rollups), which
  is also the file ``--manifest-out`` writes;
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
