"""E10 — phase-signal ablation: shader vectors vs measured performance
(why the paper characterizes intervals with an architecture-independent
signal)."""

from repro.analysis.experiments import e10_phase_signal_stability


def bench_e10(benchmark, corpus, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e10_phase_signal_stability(corpus, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    agreements = result.column("perf agreement")
    benchmark.extra_info["perf_agreement_by_game"] = {
        row[0]: round(row[5], 4) for row in result.rows
    }

    for row in result.rows:
        game = row[0]
        shader_agreement = row[2]
        perf_agreement = row[5]
        assert shader_agreement == 1.0
        # Performance-detected phases are valid labelings but need not be
        # identical across architectures; shader vectors never do worse.
        assert perf_agreement <= 1.0
        assert perf_agreement >= 0.3, f"{game}: degenerate perf phases"
    # Somewhere in the corpus the architecture dependence must actually
    # show up, otherwise the ablation demonstrates nothing.
    assert min(agreements) < 1.0
