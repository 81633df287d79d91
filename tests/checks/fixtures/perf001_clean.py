"""PERF001 clean twin: vectorized sweeps and legitimate loops."""

from repro.simgpu.simulator import GpuSimulator


def vectorized_sweep(runtime, trace, configs):
    # The fast path: every candidate in one (num_configs, num_draws) pass.
    return runtime.frame_times_many(trace, configs)


def per_trace_loop(traces, config):
    # Looping over *workloads* is fine — each trace is genuinely new work.
    simulator = GpuSimulator(config)
    return [simulator.simulate_trace(trace) for trace in traces]


def single_simulation(trace, config):
    return GpuSimulator(config).simulate_trace(trace)


def suppressed_reference_sweep(trace, configs):
    # Cross-checking the scalar simulator is the one sanctioned use.
    return [
        GpuSimulator(config).simulate_trace(trace)  # repro: noqa[PERF001]
        for config in configs
    ]
