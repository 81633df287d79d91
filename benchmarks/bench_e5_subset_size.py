"""E5 — subset size vs capture length.

Paper claims: workload subsets are less than 1% of the parent workload.
The kept frames are fixed once every phase has appeared, so the subset
fraction falls as 1/length; this bench sweeps capture length and checks
the curve heads below 1% (and crosses it at full scale).
"""


from repro import datasets
from repro.analysis.experiments import e5_subset_size

# 1/length curve: long enough to show the trend at CI scale, long enough
# to actually cross 1% at full scale.
CI_LENGTHS = (80, 160, 320, 640)
FULL_LENGTHS = (240, 480, 960, 1920, 3840)


def bench_e5(benchmark, runtime, record_result):
    full = datasets.full_scale_requested()
    lengths = FULL_LENGTHS if full else CI_LENGTHS
    scale = 0.3 if full else 0.1
    result = benchmark.pedantic(
        lambda: e5_subset_size(
            "bioshock1_like", lengths=lengths, scale=scale, runtime=runtime
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    combined = result.column("combined subset draws %")
    benchmark.extra_info["combined_subset_pct_by_length"] = dict(
        zip(result.column("frames"), [round(v, 3) for v in combined])
    )
    benchmark.extra_info["paper_claim_pct"] = 1.0

    # Shape: the fraction shrinks monotonically with capture length, on a
    # ~1/length trajectory toward (and at full scale, below) 1%.
    assert all(b < a for a, b in zip(combined, combined[1:]))
    halves = combined[0] / combined[-1]
    assert halves > (lengths[-1] / lengths[0]) * 0.4
    if full:
        assert combined[-1] < 1.0
