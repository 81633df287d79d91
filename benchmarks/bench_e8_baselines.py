"""E8 — subsetting vs naive sampling baselines at matched budget."""

from repro.analysis.experiments import e8_baselines


def bench_e8(benchmark, single_game, gpu_config, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e8_baselines(single_game, gpu_config, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    errors = dict(zip(result.column("method"), result.column("error %")))
    benchmark.extra_info["error_by_method"] = {
        k: round(v, 3) for k, v in errors.items()
    }

    # Who wins: similarity clustering beats naive draw sampling at the
    # same simulation budget, decisively against truncation.
    clustering = errors["clustering (paper)"]
    assert clustering < errors["random"]
    assert clustering < errors["first_n"]
    assert errors["first_n"] > 5 * clustering

    # Frame level: the phase subset estimates total time at least as well
    # as periodic sampling at a similar budget.
    phase_error = errors["phase subset (paper)"]
    assert phase_error < 5.0
