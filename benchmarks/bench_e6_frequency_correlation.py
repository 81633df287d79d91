"""E6 — frequency-scaling correlation between subset and parent.

Paper claims: the subset's performance improvement under GPU frequency
scaling correlates with the parent's at r >= 0.997.
"""

from repro.analysis.experiments import e6_frequency_correlation


def bench_e6(benchmark, corpus, gpu_config, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e6_frequency_correlation(corpus, gpu_config, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    correlations = dict(zip(result.column("game"), result.column("correlation r")))
    benchmark.extra_info["correlation_by_game"] = {
        game: round(r, 5) for game, r in correlations.items()
    }
    benchmark.extra_info["paper_threshold"] = 0.997

    # The paper's headline validation: meet its bar in every game.
    for game, r in correlations.items():
        assert r >= 0.997, f"{game}: correlation {r} below the paper's bar"
