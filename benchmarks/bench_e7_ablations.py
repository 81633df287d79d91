"""E7 — ablations: clustering algorithm and feature-group sensitivity
(design-choice analysis implied by the paper's methodology)."""

from repro.analysis.experiments import e7_ablations


def bench_e7(benchmark, single_game, gpu_config, runtime, record_result):
    result = benchmark.pedantic(
        lambda: e7_ablations(single_game, gpu_config, runtime=runtime),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    by_variant = {
        row[0]: {"error": row[1], "efficiency": row[2], "outliers": row[3]}
        for row in result.rows
    }
    benchmark.extra_info["variants"] = {
        k: round(v["error"], 3) for k, v in by_variant.items()
    }

    base = by_variant["leader (default)"]
    assert base["error"] < 3.0

    # Dropping the geometry features must hurt: geometry counts carry most
    # of the performance signal.
    no_geometry = by_variant["leader - geometry features"]
    assert (
        no_geometry["error"] > base["error"]
        or no_geometry["outliers"] > base["outliers"]
    )

    # Budget-matched k-means and threshold agglomerative track the leader
    # result closely: the methodology is algorithm-robust when the
    # cluster-count operating point matches.
    for variant in by_variant:
        if variant.startswith("kmeans (k=") or variant == "agglomerative":
            assert by_variant[variant]["error"] < 5.0, f"{variant} diverged"

    # BIC-selected k-means picks an aggressive k (more efficiency, much
    # worse error) — evidence that a similarity radius, not a global k
    # criterion, is the right control for this problem.
    bic = by_variant["kmeans_bic"]
    assert bic["efficiency"] > base["efficiency"]
    assert bic["error"] > base["error"]
