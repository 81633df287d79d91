"""Self-test of the end-to-end benchmark harness, on tiny traces (``--quick``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once, traced, in quick mode (under a minute on two
cores) and checks the harness itself: the metric catalog, op-to-op
determinism, hook resolution, span attribution, and that nothing is
written under ``.repro/``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from typing import Dict, Tuple

import pytest

import compare
import hooks
import run
from repro.obs.context import ObsContext, activate_obs
from repro.obs.spans import Tracer
from workloads import WORKLOADS

CATALOG = run.load_catalog()
NAMES = [w["name"] for w in CATALOG["workloads"]]


def _repro_tree() -> Dict[str, Tuple[int, int]]:
    root = run.ROOT / ".repro"
    return {
        str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in root.rglob("*") if p.is_file()
    }


@pytest.fixture(scope="module")
def quick_run():
    before = _repro_tree()
    records = {
        name: run.run_workload(name, seed=3, seconds=0, traced=True, quick=True)
        for name in NAMES
    }
    return records, before, _repro_tree()


def test_catalog_matches_workloads_and_hooks():
    assert NAMES == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CATALOG["per_layer"]} == hooks.metric_units()


def test_every_declared_metric_is_reported_with_its_unit(quick_run):
    records, _, _ = quick_run
    for record in records.values():
        for traced, declared in ((False, "end_to_end"), (True, "per_layer")):
            reported = run.contract_metrics(record, CATALOG, traced)
            assert list(reported) == [m["name"] for m in CATALOG[declared]]
            for metric in CATALOG[declared]:
                entry = reported[metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float)), metric["name"]
        for metric in CATALOG["end_to_end"]:
            assert record["e2e"][metric["name"]]["median"] > 0


def test_ops_reproduce_one_digest(quick_run):
    records, _, _ = quick_run
    for record in records.values():
        assert record["correct"] and record["failed"] == 0
        assert sum(op["kind"] == "timed" for op in record["ops"]) >= 2
        assert {op["digest"] for op in record["ops"]} == {record["digest"]}


def test_every_hook_resolves_and_is_restored():
    originals = [hooks._resolve(hook)[2] for hook in hooks.HOOKS]
    with hooks.installed() as missing:
        assert missing == set()
        assert all(hooks._resolve(h)[2] is not o for h, o in zip(hooks.HOOKS, originals))
    assert all(hooks._resolve(h)[2] is o for h, o in zip(hooks.HOOKS, originals))


def test_missing_hook_reports_its_layer_as_null(capsys):
    gone = hooks.Hook("core.leader", "repro.core.cluster_frame", "no_such_function")
    with hooks.installed((gone,)) as missing:
        assert missing == {"core.leader"}
    assert "does not resolve" in capsys.readouterr().err
    tracer = Tracer()
    with activate_obs(ObsContext(tracer=tracer)), hooks.bench_span(hooks.ROOT):
        pass
    _, values = hooks.layer_metrics(tracer.spans(), {}, 1, 0, missing)
    assert values["core.leader.self_s"] is None
    assert values["core.leader.ns_per_distance_eval"] is None
    assert values["gfx.traceio.self_s"] == 0


def test_traced_ops_attribute_their_wall_to_layers(quick_run):
    records, _, _ = quick_run
    for name, record in records.items():
        assert record["layers"]["trace.attributed_pct"] >= 95, name
        for op in record["ops"]:
            if op["kind"] != "traced":
                continue
            self_s = sum(v for k, v in op["raw_layers"].items() if k.endswith(".self_s"))
            assert self_s <= WORKLOADS[name].jobs * op["root_s"], name


def test_nothing_is_written_under_repro(quick_run):
    _, before, after = quick_run
    assert after == before


def test_compare_verdicts():
    def scaled(runs, k):
        return [[x * k for x in r] for r in runs]

    run_ = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    one = [run_]
    assert compare.verdict(one, one, 0.10, True) == "unchanged"
    assert compare.verdict(one, scaled(one, 1.2), 0.10, True) == "regressed"
    assert compare.verdict(one, scaled(one, 0.8), 0.10, False) == "regressed"
    # A gain needs at least ten pairs of runs.
    assert compare.verdict(one, scaled(one, 0.8), 0.10, True) == "unchanged"
    ten = [[x * (1 + i / 100) for x in run_] for i in range(10)]
    assert compare.verdict(ten, scaled(ten, 0.8), 0.10, True) == "improved"
    wide = [[0.7, 1.0, 1.3, 0.8, 1.2, 1.0]]
    assert compare.verdict(wide, scaled(wide, 1.05), 0.10, True) == "unresolved"


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "subset", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
