"""E9 — subsets extracted once transfer across architectures
(the operational meaning of 'micro-architecture-independent')."""

from repro.analysis.experiments import e9_cross_architecture_transfer


def bench_e9(benchmark, corpus, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e9_cross_architecture_transfer(corpus, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    errors = result.column("error %")
    benchmark.extra_info["max_transfer_error_pct"] = round(max(errors), 3)

    # One extraction, every architecture: estimates stay tight everywhere.
    for row in result.rows:
        game, architecture, _, _, error = row
        assert error < 8.0, f"{game} on {architecture}: {error}% error"
