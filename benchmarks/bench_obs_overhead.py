#!/usr/bin/env python
"""Observability overhead benchmark: tracing off vs on.

The observability layer must be free when disabled — the default
``NULL_TRACER`` turns every span into a shared no-op context manager —
and cheap when enabled.  This script times the full subsetting pipeline
under three configurations and writes ``BENCH_obs.json`` at the
repository root:

    python benchmarks/bench_obs_overhead.py [--frames N] [--repeats N]

* ``disabled_overhead_pct`` — two back-to-back *disabled* runs against
  each other; anything beyond run-to-run noise would mean the no-op
  path is doing work.  Must stay under 5%.
* ``enabled_overhead_pct`` — tracing + metrics on vs off; informational,
  but kept honest in the report.

(Function names deliberately avoid the ``bench_*`` pattern that pytest
collects from this directory; this script is standalone.)
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import datasets  # noqa: E402
from repro.core.pipeline import SubsettingPipeline  # noqa: E402
from repro.obs.history import record_run  # noqa: E402
from repro.obs.spans import Tracer  # noqa: E402
from repro.runtime.engine import Runtime  # noqa: E402
from repro.simgpu.config import GpuConfig  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_obs.json"
DISABLED_OVERHEAD_LIMIT_PCT = 5.0


def _timed_runs(trace, config, repeats, make_runtime):
    times = []
    for _ in range(repeats):
        runtime = make_runtime()
        start = time.perf_counter()
        SubsettingPipeline().run(trace, config, runtime=runtime)
        times.append(time.perf_counter() - start)
    return times


def _overhead_pct(baseline_s, measured_s):
    return 100.0 * (measured_s / baseline_s - 1.0)


def run_benchmark(frames: int, repeats: int) -> dict:
    trace = datasets.load("bioshock1_like", frames=frames, scale=0.2)
    config = GpuConfig.preset("mainstream")

    # Warm-up: JIT-free Python still pays import/allocator warmup once.
    _timed_runs(trace, config, 1, Runtime)

    disabled_a = _timed_runs(trace, config, repeats, Runtime)
    disabled_b = _timed_runs(trace, config, repeats, Runtime)
    enabled = _timed_runs(
        trace, config, repeats, lambda: Runtime(jobs=1, tracer=Tracer())
    )

    base = statistics.median(disabled_a)
    disabled_overhead = _overhead_pct(base, statistics.median(disabled_b))
    enabled_overhead = _overhead_pct(base, statistics.median(enabled))

    runtime = Runtime(jobs=1, tracer=Tracer())
    SubsettingPipeline().run(trace, config, runtime=runtime)
    spans_per_run = len(runtime.tracer.spans())

    return {
        "benchmark": "obs_overhead",
        "frames": frames,
        "repeats": repeats,
        "disabled_median_s": round(base, 6),
        "disabled_rerun_median_s": round(statistics.median(disabled_b), 6),
        "enabled_median_s": round(statistics.median(enabled), 6),
        "disabled_overhead_pct": round(disabled_overhead, 3),
        "enabled_overhead_pct": round(enabled_overhead, 3),
        "disabled_overhead_limit_pct": DISABLED_OVERHEAD_LIMIT_PCT,
        "spans_per_traced_run": spans_per_run,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    payload = run_benchmark(args.frames, args.repeats)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))

    record_run(
        "bench:obs_overhead",
        argv=sys.argv[1:],
        metrics={
            "gauge:disabled_overhead_pct": payload["disabled_overhead_pct"],
            "gauge:enabled_overhead_pct": payload["enabled_overhead_pct"],
            "counter:spans_per_traced_run": payload["spans_per_traced_run"],
        },
        stages={
            "pipeline_disabled": payload["disabled_median_s"],
            "pipeline_enabled": payload["enabled_median_s"],
        },
        extra={"frames": args.frames, "repeats": args.repeats},
    )

    if abs(payload["disabled_overhead_pct"]) > DISABLED_OVERHEAD_LIMIT_PCT:
        print(
            f"FAIL: disabled-path overhead {payload['disabled_overhead_pct']}% "
            f"exceeds {DISABLED_OVERHEAD_LIMIT_PCT}%",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: disabled overhead {payload['disabled_overhead_pct']}% "
        f"(limit {DISABLED_OVERHEAD_LIMIT_PCT}%), "
        f"enabled overhead {payload['enabled_overhead_pct']}%"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
