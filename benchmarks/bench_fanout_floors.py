#!/usr/bin/env python
"""Fan-out floors: the work at which a process pool pays for itself.

``Runtime`` runs a fan-out inline unless its work covers at least two
floors (``Runtime.MIN_TASK_DRAW_CONFIGS`` draw x config evaluations to
simulate, ``Runtime.MIN_TASK_DRAWS`` draws to cluster).  A floor is half
the break-even size, the least fan-out from which ``jobs=N`` beats
``jobs=1`` on wall time at every larger measured size, so a pooled
fan-out always has at least 2 tasks.  For each fan-out size this script
times one call three ways, each in a fresh process, rotating the order
from pair to pair:

- ``inline``: ``Runtime(jobs=1)``;
- ``rule``: ``Runtime(jobs=N)`` with the committed floors, the partition
  the runtime picks;
- ``pooled``: ``Runtime(jobs=N)`` with both floors at 1, so every
  fan-out cuts ``N * CHUNKS_PER_JOB`` ranges.

Simulation points call ``frame_times_many`` on ``bioshock2_like`` with
the first C of the e2e ``sweep`` workload's 144 candidates; clustering
points call ``cluster_frames`` (leader, radius 0.21) on
``bioshock1_like``.  Seed 7, the active kernel backend, the precompute
memo warm and the precompute store off.  A process reports the median wall and CPU time (its own
plus its reaped workers') of ``--reps`` calls; the table shows the
median over pairs, and ``tasks`` is the rule side's partition.

    python benchmarks/bench_fanout_floors.py [--kind sim|cluster|both]
        [--jobs N] [--pairs N] [--reps N] [--out FILE.json]

(No function is named ``bench_*``: this script is standalone, not a
pytest bench.)
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

from repro import datasets  # noqa: E402
from repro.gfx.traceio import load_trace_auto, save_trace_auto  # noqa: E402
from repro.runtime.engine import Runtime  # noqa: E402
from repro.simgpu import _kernels  # noqa: E402
from repro.simgpu.precomp_store import set_precomp_dir  # noqa: E402
from workloads import sweep_candidates  # noqa: E402

#: (frames, scale, configs) of ``bioshock2_like``; 60 x 0.5 x 144 is the
#: parent fan-out of the e2e ``sweep`` workload.
SIM_POINTS = (
    (240, 1.0, 6), (60, 0.5, 144), (240, 0.5, 36), (120, 0.5, 144),
    (240, 1.0, 36), (240, 0.5, 144), (240, 1.0, 144),
)
#: (frames, scale) of ``bioshock1_like``.
CLUSTER_POINTS = ((28, 1.0), (36, 1.0), (44, 1.0), (60, 1.0), (240, 1.0))
SIDES = ("inline", "rule", "pooled")
CLUSTER_PARAMS = dict(method="leader", radius=0.21, k=None, normalize="zscore", seed=0)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def probe(spec: Dict) -> Dict:
    """Time one side of one point in this process."""
    set_precomp_dir("")
    backend = _kernels.backend().name
    if spec["side"] == "pooled":
        Runtime.MIN_TASK_DRAW_CONFIGS = 1
        Runtime.MIN_TASK_DRAWS = 1
    jobs = 1 if spec["side"] == "inline" else spec["jobs"]
    trace = load_trace_auto(spec["trace"])
    if spec["kind"] == "sim":
        configs = sweep_candidates()[: spec["configs"]]
        Runtime(jobs=1).frame_times_many(trace, configs[:1])  # warm the memo

        def body(runtime: Runtime) -> None:
            runtime.frame_times_many(trace, configs)
    else:
        def body(runtime: Runtime) -> None:
            runtime.cluster_frames(trace, **CLUSTER_PARAMS)

    walls, cpus, tasks = [], [], 0
    for _ in range(spec["reps"]):
        runtime = Runtime(jobs=jobs)
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        body(runtime)
        walls.append(time.perf_counter() - wall0)
        cpus.append(_cpu_s() - cpu0)
        tasks = runtime.metrics.counter_total("tasks_run")
    return {
        "draws": trace.num_draws, "tasks": tasks, "backend": backend,
        "wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
    }


def _trace(trace_dir: Path, game: str, frames: int, scale: float) -> Path:
    path = trace_dir / f"{game}-{frames}-{scale:g}.rpb"
    if not path.exists():
        save_trace_auto(datasets.load(game, frames=frames, seed=7, scale=scale), path)
    return path


def measure(args: argparse.Namespace, trace_dir: Path) -> List[Dict]:
    points: List[Tuple[str, Path, int]] = []
    if args.kind in ("sim", "both"):
        points += [
            ("sim", _trace(trace_dir, "bioshock2_like", f, s), c) for f, s, c in SIM_POINTS
        ]
    if args.kind in ("cluster", "both"):
        points += [
            ("cluster", _trace(trace_dir, "bioshock1_like", f, s), 1) for f, s in CLUSTER_POINTS
        ]
    rows = []
    for kind, path, configs in points:
        runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            shift = pair % len(SIDES)
            for side in SIDES[shift:] + SIDES[:shift]:
                spec = dict(
                    kind=kind, trace=str(path), configs=configs, side=side,
                    jobs=args.jobs, reps=args.reps,
                )
                out = subprocess.run(
                    [sys.executable, __file__, "--probe", json.dumps(spec)],
                    capture_output=True, text=True, check=True,
                )
                runs[side].append(json.loads(out.stdout.strip().splitlines()[-1]))
        row = {
            "kind": kind, "draws": runs["inline"][0]["draws"], "configs": configs,
            "work": runs["inline"][0]["draws"] * configs,
            "tasks": runs["rule"][0]["tasks"], "backend": runs["inline"][0]["backend"],
        }
        for side in SIDES:
            for metric in ("wall_s", "cpu_s"):
                row[f"{side}_{metric}"] = statistics.median(r[metric] for r in runs[side])
        rows.append(row)
        print(
            f"{kind:7s} {row['draws']:>7d} x {configs:>3d} = {row['work'] / 1e6:7.3f}M | "
            + " | ".join(
                f"{side} {row[side + '_wall_s']:.3f} s (cpu {row[side + '_cpu_s']:.3f})"
                for side in SIDES
            )
            + f" | rule tasks {row['tasks']}",
            flush=True,
        )
    return rows


def implied_floors(rows: List[Dict]) -> Dict[str, Dict]:
    """Per kind, half the least work from which the pool beat inline at
    every larger measured size (``None`` if it lost at the largest)."""
    committed = {"sim": Runtime.MIN_TASK_DRAW_CONFIGS, "cluster": Runtime.MIN_TASK_DRAWS}
    out = {}
    for kind, floor in committed.items():
        implied = None
        for row in sorted((r for r in rows if r["kind"] == kind), key=lambda r: -r["work"]):
            if row["pooled_wall_s"] >= row["inline_wall_s"]:
                break
            implied = row["work"] // 2
        if any(r["kind"] == kind for r in rows):
            out[kind] = {"committed": floor, "implied": implied}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kind", choices=("sim", "cluster", "both"), default="both")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--trace-dir", default=None, help="keep generated traces here")
    parser.add_argument("--out", default=None, help="write rows and floors as JSON")
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(probe(json.loads(args.probe))))
        return 0
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        rows = measure(args, trace_dir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = measure(args, Path(tmp))
    floors = implied_floors(rows)
    for kind, floor in floors.items():
        print(f"{kind}: committed floor {floor['committed']:,}, implied {floor['implied']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"jobs": args.jobs, "pairs": args.pairs, "reps": args.reps,
             "rows": rows, "floors": floors}, indent=2,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
