"""E2 — cluster-outlier rate (paper figure: clustering quality).

Paper claims: only 3.0% of clusters on average are outliers (intra-
cluster prediction error > 20%).
"""

from repro.analysis.experiments import e2_cluster_outliers


def bench_e2(benchmark, corpus, gpu_config, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e2_cluster_outliers(corpus, gpu_config, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    average_rate = result.rows[-1][2]
    benchmark.extra_info["avg_outlier_rate_pct"] = round(average_rate, 2)
    benchmark.extra_info["paper_outlier_rate_pct"] = 3.0

    # Shape: a small minority of clusters are outliers, in every game.
    assert average_rate < 10.0
    for row in result.rows[:-1]:
        assert row[2] < 15.0
