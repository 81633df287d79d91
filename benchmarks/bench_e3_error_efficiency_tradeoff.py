"""E3 — error vs efficiency trade-off as the similarity radius grows
(methodology figure; the paper's operating point sits on this curve)."""

from repro.analysis.experiments import e3_error_efficiency_tradeoff

RADII = (0.05, 0.1, 0.21, 0.3, 0.45, 0.7, 1.0)


def bench_e3(benchmark, single_game, gpu_config, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e3_error_efficiency_tradeoff(
            single_game, gpu_config, RADII, runtime=runtime
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    efficiencies = result.column("efficiency %")
    errors = result.column("pred error %")
    benchmark.extra_info["efficiency_range_pct"] = (
        round(efficiencies[0], 1),
        round(efficiencies[-1], 1),
    )
    benchmark.extra_info["error_range_pct"] = (
        round(errors[0], 3),
        round(errors[-1], 3),
    )

    # Shape: efficiency grows monotonically with radius; error grows
    # broadly (allowing local noise) from tight to loose clustering.
    assert list(efficiencies) == sorted(efficiencies)
    assert errors[-1] > errors[0]
    assert efficiencies[-1] - efficiencies[0] > 20.0
