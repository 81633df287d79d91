#!/usr/bin/env python
"""Runtime speedup benchmark: serial vs parallel, cold vs warm cache.

Runs the full subsetting pipeline on one mid-size trace under four
runtime configurations and records wall-clock times plus the derived
speedups to ``BENCH_runtime.json`` at the repository root:

    python benchmarks/bench_runtime_speedup.py [--frames N] [--jobs N]

Every configuration must produce an identical ``PipelineResult`` — the
benchmark asserts it, so it doubles as an end-to-end determinism check.
The record's ``tasks_run`` shows whether the parallel run used the pool:
a fan-out below the runtime's work floors is one task run inline, so
equal serial and parallel counts mean no worker process started, and
``parallel_vs_serial`` then reads ``skipped_inline`` instead of a ratio.
Every timed run starts from the same state: the kernel backend is
resolved (and on a cold kernel cache, compiled) and one untimed serial
run pays the process's first-run costs before the first one, the shared
precompute store is off, and the in-process precompute memo is cleared
before each, so no run inherits another's warm precompute.  The default
trace (44 frames, 32K draws) is big enough that ``--jobs 2`` starts the
pool for the clustering fan-out.
(Function names deliberately avoid the ``bench_*`` pattern that pytest
collects from this directory; this script is standalone.)
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import datasets  # noqa: E402
from repro.core.pipeline import SubsettingPipeline  # noqa: E402
from repro.obs.history import record_run  # noqa: E402
from repro.runtime.engine import Runtime, available_cpus  # noqa: E402
from repro.simgpu import _kernels  # noqa: E402
from repro.simgpu.batch import clear_precomp_cache  # noqa: E402
from repro.simgpu.config import GpuConfig  # noqa: E402
from repro.simgpu.precomp_store import set_precomp_dir  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_runtime.json"


def _timed_run(trace, config, runtime):
    clear_precomp_cache()
    start = time.perf_counter()
    result = SubsettingPipeline().run(trace, config, runtime=runtime)
    elapsed = time.perf_counter() - start
    return result, elapsed, runtime.metrics.snapshot()


def run_benchmark(frames: int, scale: float, jobs: int) -> dict:
    trace = datasets.load("bioshock1_like", frames=frames, scale=scale)
    config = GpuConfig.preset("mainstream")
    # The serial reference is timed first in this process: build the
    # kernels and pay the first run's one-off costs before any run is
    # timed, and keep precompute out of the shared store, where the
    # parallel run's workers would find it warm.
    _kernels.backend()
    set_precomp_dir("")
    _timed_run(trace, config, Runtime())

    # A pool wider than the host is pure overhead, and on a single-CPU
    # host "parallel vs serial" measures nothing but that overhead — so
    # clamp, and skip the comparison instead of publishing a <1x
    # "speedup" that reads like a regression.
    host_cpus = available_cpus()
    requested_jobs = jobs
    jobs = max(1, min(jobs, host_cpus))

    reference, serial_s, serial_snap = _timed_run(trace, config, Runtime())
    tasks_run = {"serial": serial_snap.counter_total("tasks_run"), "parallel": None}
    if jobs > 1:
        parallel, parallel_s, parallel_snap = _timed_run(
            trace, config, Runtime(jobs=jobs)
        )
        assert parallel == reference, "parallel run diverged from serial"
        parallel_timing = round(parallel_s, 4)
        tasks_run["parallel"] = parallel_snap.counter_total("tasks_run")
        # Equal task counts mean every fan-out ran inline on both sides,
        # so the ratio would compare two serial runs: skip it too.
        if tasks_run["parallel"] == tasks_run["serial"]:
            parallel_speedup = "skipped_inline"
        else:
            parallel_speedup = round(serial_s / parallel_s, 3)
    else:
        parallel_timing = None
        parallel_speedup = "skipped_single_cpu"

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold, cold_s, cold_snap = _timed_run(
            trace, config, Runtime(jobs=jobs, cache_dir=cache_dir)
        )
        assert cold == reference, "cold-cache run diverged from serial"
        warm, warm_s, warm_snap = _timed_run(
            trace, config, Runtime(jobs=jobs, cache_dir=cache_dir)
        )
        assert warm == reference, "warm-cache run diverged from serial"
        assert warm_snap.counter_total("frames_simulated") == 0, (
            "warm cache still simulated frames"
        )

    return {
        "trace": trace.name,
        "frames": trace.num_frames,
        "draws": trace.num_draws,
        "jobs": jobs,
        "requested_jobs": requested_jobs,
        "host_cpus": host_cpus,
        "timings_s": {
            "serial": round(serial_s, 4),
            "parallel": parallel_timing,
            "cold_cache": round(cold_s, 4),
            "warm_cache": round(warm_s, 4),
        },
        "speedups": {
            "parallel_vs_serial": parallel_speedup,
            "warm_vs_cold": round(cold_s / warm_s, 3),
        },
        "tasks_run": tasks_run,
        "cold_counters": {
            "frames_simulated": cold_snap.counter_total("frames_simulated"),
            "cache_misses": cold_snap.counter_total("cache_misses"),
        },
        "warm_counters": {
            "frames_simulated": warm_snap.counter_total("frames_simulated"),
            "cache_hits": warm_snap.counter_total("cache_hits"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=44)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("-o", "--output", default=str(OUTPUT_PATH))
    args = parser.parse_args(argv)

    record = run_benchmark(args.frames, args.scale, args.jobs)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    timings_s = record["timings_s"]
    stages = {
        f"pipeline_{name}": seconds
        for name, seconds in timings_s.items()
        if seconds is not None
    }
    run_metrics = {
        "counter:frames_simulated": float(
            record["cold_counters"]["frames_simulated"]
        ),
        "counter:warm_cache_hits": float(
            record["warm_counters"]["cache_hits"]
        ),
        "gauge:warm_vs_cold_speedup": float(
            record["speedups"]["warm_vs_cold"]
        ),
    }
    speedup = record["speedups"]["parallel_vs_serial"]
    if not isinstance(speedup, str):
        run_metrics["gauge:parallel_vs_serial_speedup"] = float(speedup)
    record_run(
        "bench:runtime_speedup",
        argv=sys.argv[1:],
        jobs=record["jobs"],
        metrics=run_metrics,
        stages=stages,
        extra={"trace": record["trace"], "draws": record["draws"]},
    )

    timings = record["timings_s"]
    print(
        f"{record['trace']}: {record['frames']} frames, "
        f"{record['draws']} draws, jobs={record['jobs']} "
        f"(requested {record['requested_jobs']}), "
        f"host cpus={record['host_cpus']}"
    )
    if timings["parallel"] is None:
        print(
            f"  serial {timings['serial']:.2f}s | parallel comparison "
            "skipped (single-cpu host)"
        )
    else:
        ratio = "inline on both sides" if isinstance(speedup, str) else f"{speedup:.2f}x"
        print(
            f"  serial {timings['serial']:.2f}s | "
            f"parallel {timings['parallel']:.2f}s "
            f"({ratio}; tasks {record['tasks_run']['serial']} serial, "
            f"{record['tasks_run']['parallel']} parallel)"
        )
    print(
        f"  cold cache {timings['cold_cache']:.2f}s | "
        f"warm cache {timings['warm_cache']:.2f}s "
        f"({record['speedups']['warm_vs_cold']:.2f}x, "
        f"{record['warm_counters']['frames_simulated']} frames re-simulated)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
