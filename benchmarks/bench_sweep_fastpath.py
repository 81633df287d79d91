#!/usr/bin/env python
"""Sweep fast-path benchmark: per-config loop vs config-vectorized pass.

Simulates one trace on N candidate GPU configs three ways —

- **per_config_loop**: the scalar reference, ``GpuSimulator(c)
  .simulate_trace(trace)`` once per config (the anti-pattern PERF001
  now flags);
- **vectorized_cold**: one ``simulate_frame_range_multi`` call
  evaluating every config as a ``(num_configs, num_draws)`` numpy pass
  per frame, including the per-frame precompute;
- **vectorized_warm**: the same call again, hitting the worker-side
  precompute memo (what repeated sweep/validate tasks see);

asserts all three agree within float tolerance, times vectorized
feature extraction against the per-draw reference, and writes the
record to ``BENCH_sweep.json`` at the repository root:

    python benchmarks/bench_sweep_fastpath.py [--frames N] [--configs N]

``--min-speedup R`` turns the run into a gate: exit nonzero unless
vectorized_cold beats the per-config loop by at least R (the CI smoke
step uses this).  Per-layer timings come from ``repro.obs`` spans.
(Function names deliberately avoid the ``bench_*`` pattern that pytest
collects from this directory; this script is standalone.)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import datasets  # noqa: E402
from repro.core.features import FeatureExtractor  # noqa: E402
from repro.obs.context import ObsContext, activate_obs  # noqa: E402
from repro.obs.history import record_run  # noqa: E402
from repro.obs.metrics import Metrics  # noqa: E402
from repro.obs.spans import Tracer  # noqa: E402
from repro.simgpu import _kernels  # noqa: E402
from repro.simgpu.batch import (  # noqa: E402
    clear_precomp_cache,
    simulate_frame_range_multi,
    trace_result_from_outputs,
)
from repro.simgpu.config import GpuConfig  # noqa: E402
from repro.simgpu.simulator import GpuSimulator  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_sweep.json"


def candidate_configs(base: GpuConfig, count: int) -> list:
    """``count`` pathfinding candidates varying compute, caches, clocks.

    Cache sizes repeat with period 3 so the sweep exercises the
    per-distinct-capacity sharing of the context arrays — exactly what a
    real sweep (many compute points, few cache points) looks like.
    """
    candidates = []
    for i in range(count):
        candidates.append(
            base.scaled(
                name=f"cand{i}",
                num_shader_cores=max(1, base.num_shader_cores - 2 + i),
                tex_cache_kb=base.tex_cache_kb * (1 + i % 3),
                l2_cache_kb=base.l2_cache_kb * (1 + i % 3),
                core_clock_mhz=base.core_clock_mhz * (0.8 + 0.1 * i),
            )
        )
    return candidates


def _max_rel_err(reference, candidate) -> float:
    worst = 0.0
    for ref_result, new_result in zip(reference, candidate):
        pairs = zip(ref_result.frame_results, new_result.frame_results)
        for ref_frame, new_frame in pairs:
            for attribute in ("time_ns", "core_cycles", "dram_cycles"):
                ref_value = getattr(ref_frame, attribute)
                new_value = getattr(new_frame, attribute)
                scale = max(abs(ref_value), 1.0)
                worst = max(worst, abs(ref_value - new_value) / scale)
    return worst


def _vectorized_sweep(trace, configs):
    """One config-vectorized pass under obs; returns results+spans+metrics."""
    tracer = Tracer()
    metrics = Metrics()
    start = time.perf_counter()
    with activate_obs(ObsContext(tracer=tracer, metrics=metrics)):
        per_config = simulate_frame_range_multi(
            trace, configs, 0, trace.num_frames
        )
    elapsed = time.perf_counter() - start
    results = [
        trace_result_from_outputs(trace.name, config.name, outputs)
        for config, outputs in zip(configs, per_config)
    ]
    return results, elapsed, tracer.drain(), metrics.snapshot()


def run_benchmark(frames: int, scale: float, num_configs: int) -> dict:
    trace = datasets.load("bioshock1_like", frames=frames, scale=scale)
    configs = candidate_configs(GpuConfig.preset("mainstream"), num_configs)
    # Resolve (and on a cold kernel cache, compile) the kernel backend
    # before anything is timed, so the one-time build lands in no pass.
    _kernels.backend()

    # Old path: the per-config scalar loop this PR removed from the
    # sweep layers (kept here as the measured baseline).
    start = time.perf_counter()
    reference = [
        GpuSimulator(config).simulate_trace(trace) for config in configs
    ]
    loop_s = time.perf_counter() - start

    clear_precomp_cache()
    vec_results, cold_s, spans, cold_metrics = _vectorized_sweep(trace, configs)
    warm_results, warm_s, _, warm_metrics = _vectorized_sweep(trace, configs)

    parity_cold = _max_rel_err(reference, vec_results)
    parity_warm = _max_rel_err(reference, warm_results)
    tolerance = 1e-9
    assert parity_cold <= tolerance, (
        f"vectorized sweep diverged from per-config loop: {parity_cold}"
    )
    assert parity_warm <= tolerance, (
        f"warm (memoized) sweep diverged: {parity_warm}"
    )

    # Per-layer attribution: the evaluate layer is the simulate_frame
    # spans; the remainder of the cold pass is per-frame precompute
    # (table resolution, switch events, texture reuse distances).
    simulate_spans = [s for s in spans if s.name == "simulate_frame"]
    evaluate_s = sum(s.duration_ns for s in simulate_spans) / 1e9
    layers = {
        "evaluate_s": round(evaluate_s, 4),
        "precompute_s": round(max(0.0, cold_s - evaluate_s), 4),
        "simulate_frame_spans": len(simulate_spans),
    }

    # Feature extraction: vectorized matrix build vs per-draw reference.
    draws = [draw for frame in trace.frames for draw in frame.draw_list]
    start = time.perf_counter()
    per_draw_extractor = FeatureExtractor(trace)
    for draw in draws:
        per_draw_extractor.extract(draw)
    features_old_s = time.perf_counter() - start
    start = time.perf_counter()
    FeatureExtractor(trace).trace_matrices()
    features_new_s = time.perf_counter() - start

    return {
        "trace": trace.name,
        "frames": trace.num_frames,
        "draws": trace.num_draws,
        "num_configs": num_configs,
        "timings_s": {
            "per_config_loop": round(loop_s, 4),
            "vectorized_cold": round(cold_s, 4),
            "vectorized_warm": round(warm_s, 4),
            "features_per_draw": round(features_old_s, 4),
            "features_vectorized": round(features_new_s, 4),
        },
        "speedups": {
            "vectorized_vs_loop": round(loop_s / cold_s, 2),
            "vectorized_warm_vs_loop": round(loop_s / warm_s, 2),
            "features_vectorized_vs_per_draw": round(
                features_old_s / features_new_s, 2
            ),
        },
        "layers": layers,
        # Which kernel backend computed the pass, and how the cold/warm
        # passes interacted with the shared precompute store (the warm
        # pass hits the in-process memo, so zeros there are expected).
        "kernels": _kernels.kernel_info(),
        "precomp_store": {
            phase: {
                name: snapshot.counter_total(f"precomp_store_{name}")
                for name in ("hits", "misses", "publishes")
            }
            for phase, snapshot in (
                ("cold", cold_metrics),
                ("warm", warm_metrics),
            )
        },
        "parity": {
            "tolerance_rel": tolerance,
            "max_rel_err_cold": parity_cold,
            "max_rel_err_warm": parity_warm,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--configs", type=int, default=8)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "fail unless vectorized_cold beats the per-config loop by at "
            "least this factor (CI smoke gate)"
        ),
    )
    parser.add_argument("-o", "--output", default=str(OUTPUT_PATH))
    args = parser.parse_args(argv)

    record = run_benchmark(args.frames, args.scale, args.configs)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    record_run(
        "bench:sweep_fastpath",
        argv=sys.argv[1:],
        metrics={
            "gauge:vectorized_vs_loop_speedup": float(
                record["speedups"]["vectorized_vs_loop"]
            ),
            "gauge:sweep_parity_max_rel_error": float(
                record["parity"]["max_rel_err_cold"]
            ),
            "counter:precomp_store_hits": int(
                record["precomp_store"]["cold"]["hits"]
            ),
            "counter:precomp_store_misses": int(
                record["precomp_store"]["cold"]["misses"]
            ),
        },
        stages={
            f"sweep_{name}": seconds
            for name, seconds in record["timings_s"].items()
        },
        extra={
            "trace": record["trace"],
            "num_configs": record["num_configs"],
            "kernels": record["kernels"],
        },
    )

    timings = record["timings_s"]
    speedups = record["speedups"]
    print(
        f"{record['trace']}: {record['frames']} frames, "
        f"{record['draws']} draws, {record['num_configs']} configs"
    )
    print(
        f"  per-config loop {timings['per_config_loop']:.2f}s | "
        f"vectorized {timings['vectorized_cold']:.2f}s "
        f"({speedups['vectorized_vs_loop']:.1f}x) | "
        f"warm {timings['vectorized_warm']:.2f}s "
        f"({speedups['vectorized_warm_vs_loop']:.1f}x)"
    )
    print(
        f"  features per-draw {timings['features_per_draw']:.3f}s | "
        f"vectorized {timings['features_vectorized']:.3f}s "
        f"({speedups['features_vectorized_vs_per_draw']:.1f}x)"
    )
    print(
        f"  layers: evaluate {record['layers']['evaluate_s']:.3f}s over "
        f"{record['layers']['simulate_frame_spans']} frame spans, "
        f"precompute {record['layers']['precompute_s']:.3f}s"
    )
    print(f"  parity: max rel err {record['parity']['max_rel_err_cold']:.2e}")
    print(f"wrote {args.output}")

    if args.min_speedup is not None:
        achieved = speedups["vectorized_vs_loop"]
        if achieved < args.min_speedup:
            print(
                f"FAIL: vectorized speedup {achieved:.2f}x is below the "
                f"required {args.min_speedup:.2f}x"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
