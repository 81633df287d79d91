"""PERF001 fixture: whole-trace simulation inside per-config loops."""

from repro.simgpu.simulator import GpuSimulator


def sweep_loop(trace, configs):
    results = []
    for config in configs:
        results.append(GpuSimulator(config).simulate_trace(trace))  # expect: PERF001
    return results


def clock_sweep(runtime, trace, base_config, clocks_mhz):
    times = []
    for clock in clocks_mhz:
        config = base_config.with_core_clock(clock)
        times.append(runtime.simulate_trace(trace, config))  # expect: PERF001
    return times


def candidate_frames(runtime, trace, candidates):
    per_config = {}
    for candidate in candidates:
        per_config[candidate.name] = runtime.simulate_frames(  # expect: PERF001
            trace, candidate
        )
    return per_config


def comprehension_sweep(trace, configs):
    return [GpuSimulator(c).simulate_trace(trace) for c in configs]  # expect: PERF001
