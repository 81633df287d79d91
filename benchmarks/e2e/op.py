"""One benchmark step in a fresh interpreter, so no module-level memo
carries over between ops: the cold start a ``repro subset`` user pays.

    python op.py '<json spec>'

``spec["mode"]`` is ``setup`` (generate the input from the seed, write
it, and publish the shared precompute store if the workload uses one) or
``op`` (run the workload once, optionally traced).  The outcome is written
as JSON to ``spec["result"]``; a failure exits non-zero with a traceback.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict

from repro.obs.context import ObsContext, activate_obs
from repro.obs.spans import Tracer
from repro.runtime.engine import Runtime
from repro.simgpu import batch
from repro.simgpu.precomp_store import PRECOMP_DIR_ENV

import hooks
from workloads import WORKLOADS, generate


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def setup(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    input_dir = Path(spec["input_dir"])
    trace = generate(workload, spec["seed"], spec["quick"], input_dir)
    if workload.shared_store:
        os.environ[PRECOMP_DIR_ENV] = str(input_dir / "store")
        batch.prepublish_precomp(trace)
    frames, scale = workload.size(spec["quick"])
    return {
        "describe": (
            f"{workload.game} {frames} frames x{scale:g} ({trace.num_draws} draws), "
            f"{workload.suffix[1:]} input, jobs={workload.jobs}"
        ),
    }


def run_op(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    input_dir, op_dir = Path(spec["input_dir"]), Path(spec["op_dir"])
    store = input_dir / "store" if workload.shared_store else op_dir / "store"
    os.environ[PRECOMP_DIR_ENV] = str(store)
    traced = spec["traced"]
    runtime = Runtime(
        jobs=workload.jobs, cache_dir=op_dir / "cache", tracer=Tracer() if traced else None
    )
    obs = ObsContext(tracer=runtime.tracer, metrics=runtime.metrics)
    with hooks.installed() if traced else nullcontext(set()) as missing:
        with activate_obs(obs), hooks.bench_span(hooks.ROOT):
            result = workload.execute(workload.input_path(input_dir), runtime)
    digest, fidelity = workload.summarize(result)
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    out: Dict[str, Any] = {
        "digest": digest,
        "fidelity": fidelity,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
        # ru_maxrss is in KiB on Linux: op process peak + largest worker peak.
        "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024,
    }
    if traced:
        out["root_s"], out["layers"] = hooks.layer_metrics(
            runtime.tracer.spans(),
            runtime.metrics.snapshot().counter_totals(),
            workload.jobs,
            _tree_bytes(op_dir / "cache"),
            missing,
        )
    return out


def main(argv: list) -> int:
    spec = json.loads(argv[1])
    result = setup(spec) if spec["mode"] == "setup" else run_op(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
