"""Compare benchmark records written by ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

A is the baseline (parent), B the change.  With ``--`` each side is a set
of runs, paired by position (run them alternately, each pair on one
seed).  For each workload and end-to-end metric it prints both sides'
median and quartiles over all samples (timed ops, or set-up repetitions
for ``setup_s``; times as reported, scaled by the host speed probe) and a
verdict following choosing-metrics §8:

- ``improved``: at least 10 pairs, B's run median is better in at least
  9 of 10 pairs, and the medians differ by more than A's own spread;
- ``regressed``: B's median is worse by more than the metric's bound;
- ``unresolved``: A's own spread exceeds the bound, unless every run of
  B is better than every run of A (then ``unchanged``) or worse (then a
  regression beyond the bound is ``regressed``);
- ``unchanged``: otherwise.

A's spread is the IQR / median of its run medians, or of its single
run's samples.  Each pair must have identical generated inputs (else
the workload is refused), output digests and fidelity metrics.  Per-layer
self times are listed with their deltas.  The exit status is 1 when a
comparison was refused or found a regression or a changed output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from run import load_catalog, median_or_none, samples, summary

Runs = Sequence[Sequence[float]]


def verdict(base: Runs, other: Runs, bound: float, lower_is_better: bool) -> str:
    """The §8 verdict of ``other``'s runs against ``base``'s (samples per run)."""
    sign = 1.0 if lower_is_better else -1.0
    base_median = statistics.median(x for run in base for x in run)
    other_median = statistics.median(x for run in other for x in run)
    worse_by = sign * (other_median - base_median) / base_median
    base_runs = [statistics.median(run) for run in base]
    other_runs = [statistics.median(run) for run in other]
    s = summary(base_runs if len(base) > 1 else list(base[0]))
    spread = (s["q3"] - s["q1"]) / s["median"]
    pairs = [sign * (b - a) for a, b in zip(base_runs, other_runs)]
    if len(pairs) >= 10 and sum(p < 0 for p in pairs) >= 0.9 * len(pairs) and -worse_by > spread:
        return "improved"
    all_better = all(sign * (b - a) < 0 for a in base_runs for b in other_runs)
    all_worse = all(sign * (b - a) > 0 for a in base_runs for b in other_runs)
    if worse_by > bound:
        return "regressed" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base: List[Dict[str, Any]], other: List[Dict[str, Any]],
            catalog: Dict[str, Any]) -> bool:
    """Print the comparison of two sets of records; True when nothing is wrong."""
    ok = True
    for name in base[0]["workloads"]:
        a = [record["workloads"][name] for record in base]
        b = [record["workloads"].get(name) for record in other]
        if None in b:
            continue
        print(f"\n== {name}: {len(a)} vs {len(b)} runs, seeds "
              f"{[r['seed'] for r in a]} vs {[r['seed'] for r in b]} ==")
        if any(ra["inputs"] != rb["inputs"] for ra, rb in zip(a, b)):
            print("REFUSED: a pair of runs was made on different generated inputs")
            ok = False
            continue
        print(f"{'metric':<14}{'unit':<6}{'A median [q1, q3]':>30}{'B median [q1, q3]':>30}"
              f"{'change':>9}  verdict (bound)")
        for metric in catalog["end_to_end"]:
            sa = [samples(r, metric["name"]) for r in a]
            sb = [samples(r, metric["name"]) for r in b]
            if not all(sa) or not all(sb):
                continue
            result = verdict(sa, sb, metric["bound"], metric["better"] == "lower")
            ok &= result != "regressed"
            cells = [summary([x for run in side for x in run]) for side in (sa, sb)]
            text = [f"{c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]" for c in cells]
            change = cells[1]["median"] / cells[0]["median"] - 1
            print(f"{metric['name']:<14}{metric['unit']:<6}{text[0]:>30}{text[1]:>30}"
                  f"{100 * change:+8.1f}%  {result} ({metric['bound']:.0%})")
        same = all(ra["digest"] == rb["digest"] for ra, rb in zip(a, b))
        ok &= same
        print(f"{'digest':<18}{'identical' if same else 'DIFFERENT'} in every pair")
        for metric in a[0]["fidelity"]:
            pairs = [(ra["fidelity"][metric], rb["fidelity"].get(metric)) for ra, rb in zip(a, b)]
            same = all(x == y for x, y in pairs)
            ok &= same
            print(f"{metric:<18}{'identical' if same else 'DIFFERENT'} "
                  f"{pairs[0][0]!r} / {pairs[0][1]!r}")
        if all(r.get("layers") for r in a + b):
            print(f"{'layer self time':<28}{'A s':>10}{'B s':>10}{'delta s':>10}{'delta':>9}")
            for key in a[0]["layers"]:
                if not key.endswith(".self_s"):
                    continue
                va = median_or_none([r["layers"][key] for r in a])
                vb = median_or_none([r["layers"].get(key) for r in b])
                if va is None or vb is None:
                    continue
                change = f"{100 * (vb / va - 1):+8.1f}%" if va else f"{'-':>9}"
                print(f"{key[:-len('.self_s')]:<28}{va:10.4f}{vb:10.4f}{vb - va:+10.4f}{change}")
    return ok


def main(argv: List[str]) -> int:
    args = argv[1:]
    if "--" in args:
        split = args.index("--")
        sides = args[:split], args[split + 1:]
    else:
        sides = args[:1], args[1:]
    if not sides[0] or not sides[1] or ("--" not in args and len(args) != 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, other = ([json.loads(Path(p).read_text()) for p in side] for side in sides)
    print(f"# A = {' '.join(sides[0])}\n# B = {' '.join(sides[1])}")
    return 0 if compare(base, other, load_catalog()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
