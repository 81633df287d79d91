"""End-to-end subsetting benchmark: one command, every metric, checked outputs.

    python benchmarks/e2e/run.py [--seed 7] [--out FILE]
    python benchmarks/e2e/run.py --workload subset --seed 3 --seconds 25 --trace 0

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, traced,
and its end-to-end and per-layer metrics are printed; with it, one
workload runs and the last line of output is one JSON object holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Per workload: the input is generated from the seed and written
``SETUP_REPS`` times (``setup_s`` is the median), one untimed warm-up op
builds the compiled kernels and fills the page cache, then ops run one at
a time, each in a fresh interpreter (``op.py``), until ``--seconds`` have
passed.  Every op's output digest must equal the golden digest for the
seed (``golden.json``) or, for other seeds, the first op's digest.
Times are reported scaled by a host speed probe (``PROBE_REFERENCE_S``).

This runner uses only the standard library; all program code runs in the
op processes, which import ``repro`` from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for inputs, stores and caches; removed per run except
#: ``cache/``, which keeps the compiled kernels between runs.
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

SETUP_REPS = 5
#: By ``--quick``: (timed ops run even when ``--seconds`` is spent, traced ops).
MIN_OPS = {False: (3, 3), True: (2, 1)}
OP_TIMEOUT_S = 120
#: The first op in a fresh checkout also compiles the kernels.
BUILD_TIMEOUT_S = 600

#: Host speed probe.  On shared two-core hosts the whole machine's speed
#: drifts by up to 1.6x over minutes (shared cores, turbo), moving every
#: op of a run alike.  A fixed pure-Python loop is timed in this process
#: right before each set-up and op, and times are reported scaled to the
#: probe's reference duration, so that drift cancels: reported seconds =
#: measured seconds * PROBE_REFERENCE_S / probe seconds.  Measured times
#: are kept as ``raw_*``.  The probe runs no program code.
PROBE_ITERATIONS = 300_000
PROBE_REFERENCE_S = 0.0165

E2E_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
TIMES = ("setup_s", "wall_s", "cpu_s")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up failed, no op ran)."""


def load_catalog() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # Keep every store inside the checkout: kernels under WORK/cache, no
    # run records, and the precompute store chosen per op by op.py.
    env.update(REPRO_CACHE_DIR=str(WORK / "cache"), REPRO_RUN_STORE="", REPRO_PRECOMP_DIR="")
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(spec: Dict[str, Any], timeout: float) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run ``op.py`` on ``spec``; (process wall seconds, result or None)."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), json.dumps(spec)],
        cwd=ROOT, env=_child_env(), stdout=2, start_new_session=True,
    )
    # A blocking wait returns the moment the op exits; Popen.wait(timeout)
    # polls with sleeps of up to 50 ms, which would quantize the wall time.
    timer = threading.Timer(timeout, _kill_group, (proc,))
    timer.start()
    try:
        code = proc.wait()
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        # Also kills anything the op left behind (a pool worker of a
        # killed op, for instance).
        _kill_group(proc)
        proc.wait()
    if code != 0 or not result_path.exists():
        return wall, None
    return wall, json.loads(result_path.read_text())


def host_speed() -> float:
    """``PROBE_REFERENCE_S`` / the probe's time now; above 1 on a fast host."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return PROBE_REFERENCE_S / (time.perf_counter() - start)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def samples(record: Dict[str, Any], metric: str, raw: bool = False) -> List[float]:
    """An end-to-end metric's samples: set-up repetitions or completed timed ops.

    ``raw`` selects the measured times instead of the speed-scaled ones
    (timing metrics only).
    """
    key = f"raw_{metric}" if raw else metric
    if metric == "setup_s":
        return list(record[key])
    return [op[key] for op in record["ops"] if op["kind"] == "timed" and "digest" in op]


def summary(values: List[float]) -> Optional[Dict[str, float]]:
    """Median, quartiles (``statistics.quantiles``) and count."""
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _scale(value: Optional[float], unit: str, speed: float) -> Optional[float]:
    """A per-layer value at the reference host speed (times and rates only)."""
    if value is None:
        return None
    if unit in ("s", "ns"):
        return value * speed
    return value / speed if unit.endswith("/s") else value


def median_or_none(values: List[Optional[float]]) -> Optional[float]:
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool
) -> Dict[str, Any]:
    """Set up, warm up and measure one workload; the full record."""
    min_ops, traced_ops = MIN_OPS[quick]
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    base = {"workload": name, "seed": seed, "quick": quick, "result": str(run_dir / "result.json")}
    try:
        setups: List[Tuple[float, float]] = []
        input_shas: List[Dict[str, str]] = []
        for rep in range(SETUP_REPS):
            input_dir = run_dir / f"input{rep}"
            if rep:
                shutil.rmtree(run_dir / f"input{rep - 1}")
            speed = host_speed()
            wall, info = _spawn({**base, "mode": "setup", "input_dir": str(input_dir)},
                                BUILD_TIMEOUT_S)
            if info is None:
                raise BenchError(f"{name}: set-up failed")
            setups.append((wall, speed))
            input_shas.append(
                {p.name: _sha256(p) for p in sorted(input_dir.glob("input*")) if p.is_file()}
            )

        golden = _golden(seed, quick).get(name)
        layer_units = {m["name"]: m["unit"] for m in load_catalog()["per_layer"]}
        ops: List[Dict[str, Any]] = []

        def op(kind: str) -> None:
            op_dir = run_dir / "op"
            spec = {**base, "mode": "op", "input_dir": str(input_dir), "op_dir": str(op_dir),
                    "traced": kind == "traced"}
            speed = host_speed()
            wall, out = _spawn(spec, BUILD_TIMEOUT_S if kind == "warmup" else OP_TIMEOUT_S)
            shutil.rmtree(op_dir, ignore_errors=True)
            entry = {"kind": kind, "speed": speed, "raw_wall_s": wall, "wall_s": wall * speed}
            if out is None:
                entry["failed"] = True
            else:
                entry.update(out, raw_cpu_s=out["cpu_s"], cpu_s=out["cpu_s"] * speed)
            if "layers" in entry:
                entry["raw_layers"] = entry["layers"]
                entry["layers"] = {
                    metric: _scale(value, layer_units[metric], speed)
                    for metric, value in entry["raw_layers"].items()
                }
            ops.append(entry)

        op("warmup")
        deadline = time.perf_counter() + seconds
        while sum(o["kind"] == "timed" for o in ops) < min_ops or time.perf_counter() < deadline:
            op("timed")
        for _ in range(traced_ops if traced else 0):
            op("traced")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    completed = [o for o in ops if "digest" in o]
    if not completed:
        raise BenchError(f"{name}: no op completed")
    reference = golden["digest"] if golden else completed[0]["digest"]
    failed = sum(o.get("digest") != reference for o in ops)
    timed = [o for o in completed if o["kind"] == "timed"]
    traced_done = [o for o in completed if o["kind"] == "traced"]
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "describe": info["describe"],
        "inputs": input_shas[-1],
        "inputs_deterministic": all(s == input_shas[0] for s in input_shas),
        "inputs_match_golden": None if golden is None else golden["inputs"] == input_shas[-1],
        "golden_digest": None if golden is None else golden["digest"],
        "digest": completed[0]["digest"],
        "attempted": len(ops),
        "failed": failed,
        "setup_s": [wall * speed for wall, speed in setups],
        "raw_setup_s": [wall for wall, _ in setups],
        "ops": ops,
        "fidelity": completed[0]["fidelity"],
        "layers": None,
    }
    record["e2e"] = {m: summary(samples(record, m)) for m in E2E_METRICS}
    record["correct"] = failed == 0 and record["inputs_deterministic"]
    if traced_done:
        layers = {
            metric: median_or_none([o["layers"][metric] for o in traced_done])
            for metric in traced_done[0]["layers"]
        }
        untraced = statistics.median(o["wall_s"] for o in timed) if timed else None
        traced_wall = statistics.median(o["wall_s"] for o in traced_done)
        layers["trace.overhead_pct"] = (
            100.0 * (traced_wall / untraced - 1.0) if untraced else None
        )
        record["layers"] = layers
    return record


def _golden(seed: int, quick: bool) -> Dict[str, Any]:
    if quick or not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text()).get(str(seed), {})


def contract_metrics(record: Dict[str, Any], catalog: Dict[str, Any], traced: bool
                     ) -> Dict[str, Dict[str, Any]]:
    """The metrics of the final JSON line: ``{name: {value, unit}}``."""
    if traced:
        return {
            m["name"]: {"value": (record["layers"] or {}).get(m["name"]), "unit": m["unit"]}
            for m in catalog["per_layer"]
        }
    return {
        m["name"]: {"value": (record["e2e"].get(m["name"]) or {}).get("median"),
                    "unit": m["unit"]}
        for m in catalog["end_to_end"]
    }


def report(record: Dict[str, Any], catalog: Dict[str, Any]) -> None:
    """Print one workload's metrics by name with their units."""
    lines = [f"{record['describe']}; seed {record['seed']}"]
    input_status = {None: "no golden input", True: "= golden", False: "DIFFERS from golden"}
    for file, sha in record["inputs"].items():
        lines.append(f"{file} sha256 {sha} ({input_status[record['inputs_match_golden']]})")
    if not record["inputs_deterministic"]:
        lines.append("ERROR: set-up repetitions wrote different inputs for one seed")
    for metric in catalog["end_to_end"]:
        name = metric["name"]
        s = record["e2e"].get(name)
        if not s:
            continue
        line = (f"{name:<14} {s['median']:10.4f} {metric['unit']:<6} "
                f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']}")
        if name in TIMES:
            measured = statistics.median(samples(record, name, raw=True))
            line += f" (measured median {measured:.4f})"
        lines.append(line)
    rate = record["failed"] / record["attempted"]
    lines.append(f"{'error_rate':<14} {rate:10.4f} fraction "
                 f"({record['failed']}/{record['attempted']} ops)")
    lines.extend(f"{metric:<14} {value!r}" for metric, value in record["fidelity"].items())
    golden = record["golden_digest"]
    verdict = "no golden digest" if golden is None else (
        "= golden" if golden == record["digest"] else "MISMATCHES golden")
    lines.append(f"digest {record['digest']} ({verdict})")
    for metric in catalog["per_layer"] if record["layers"] else ():
        value = record["layers"].get(metric["name"])
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {metric['name']:<42} {shown:>14} {metric['unit']}")
    for line in lines:
        print(f"[{record['workload']}] {line}")


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[e2e] no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    catalog = load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(catalog["run_seconds"]),
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: add traced ops and report per-layer metrics "
                             "(default: 1 for all workloads, 0 for one)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny traces and fewer ops (harness self-test)")
    parser.add_argument("--out", type=Path, help="write the full records as JSON")
    args = parser.parse_args(argv)
    traced = bool(args.trace if args.trace is not None else args.workload is None)

    records = []
    try:
        for name in [args.workload] if args.workload else names:
            record = run_workload(name, args.seed, args.seconds, traced, args.quick)
            report(record, catalog)
            records.append(record)
    except BenchError as exc:
        print(f"[e2e] {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "workloads": {r["workload"]: r for r in records},
        }, indent=1) + "\n")
    metrics = {}
    for record in records:
        prefix = "" if args.workload else f"{record['workload']}."
        for metric, value in contract_metrics(record, catalog, traced).items():
            metrics[prefix + metric] = value
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
