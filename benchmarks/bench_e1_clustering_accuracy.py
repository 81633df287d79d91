"""E1 — per-frame prediction error & clustering efficiency (paper table 1).

Paper claims (abstract): across 717 frames / 828K draw-calls, average
per-frame performance prediction error 1.0% at average clustering
efficiency 65.8%.
"""

from repro.analysis.experiments import e1_clustering_accuracy


def bench_e1(benchmark, corpus, gpu_config, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e1_clustering_accuracy(corpus, gpu_config, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    average = result.rows[-1]
    error_pct = average[3]
    efficiency_pct = average[4]
    benchmark.extra_info["avg_pred_error_pct"] = round(error_pct, 3)
    benchmark.extra_info["avg_efficiency_pct"] = round(efficiency_pct, 2)
    benchmark.extra_info["paper_error_pct"] = 1.0
    benchmark.extra_info["paper_efficiency_pct"] = 65.8

    # Shape criteria: error at the ~1% level (not 10%), substantial
    # simulation reduction, and every game individually accurate.
    assert error_pct < 3.0
    assert efficiency_pct > 25.0
    for row in result.rows[:-1]:
        assert row[3] < 5.0
