"""Parallel execution engine with a content-addressed artifact cache.

Pathfinding is an embarrassingly parallel job graph — hundreds of frames
times dozens of candidate architectures — whose artifacts are reused for
months.  This subsystem supplies the execution layer the rest of the
library runs on:

- :class:`~repro.runtime.engine.TaskEngine` — a flat fan-out of
  independent tasks on a process pool, values back in submission
  order, with a serial ``jobs=1`` fallback that is bit-identical to the
  historical code paths;
- :class:`~repro.runtime.cache.ArtifactCache` — results keyed by a
  stable digest of (trace content, GPU config, algorithm parameters,
  format version), persisted on disk so re-runs and interrupted sweeps
  skip completed work;
- :class:`~repro.runtime.engine.Runtime` — the facade every layer that
  simulates or clusters takes from its caller (only entry points build
  one).  It records through one
  :class:`~repro.obs.context.ObsContext`: counters (tasks
  run, cache hits/misses, frames simulated) and stage times land on
  ``runtime.metrics``, spans on ``runtime.tracer``, and
  :func:`~repro.runtime.engine.summary_line` prints the digest under
  pipeline and suite reports.

See ``docs/RUNTIME.md`` for the architecture, the cache-key recipe, and
the invalidation rules, and ``docs/OBSERVABILITY.md`` for the span
model and metric naming conventions.
"""
