"""The runtime's observability: stages, per-kind task time, the summary line."""

import re
import time

import pytest

from repro.obs.metrics import Metrics
from repro.obs.spans import Tracer
from repro.runtime.engine import Runtime, TaskEngine, stage_time_s, summary_line
from repro.runtime.tasks import Task, task_function

SUMMARY = re.compile(
    r"\[runtime\] tasks=\d+ frames_simulated=\d+ cache_hits=\d+ "
    r"cache_misses=\d+ stage_time=(\d+\.\d\d)s"
)


@task_function("runtime_obs.sleepy")
def _sleepy(context, payload):
    time.sleep(payload)
    return payload


def _sleepy_tasks(n, seconds=0.01):
    return [Task(f"s{i}", "runtime_obs.sleepy", payload=seconds) for i in range(n)]


class TestStages:
    def test_stage_opens_span_on_runtime_tracer(self):
        runtime = Runtime(tracer=Tracer())
        with runtime.stage("stagework"):
            pass
        spans = runtime.tracer.spans()
        assert [s.name for s in spans] == ["stagework"]
        assert spans[0].category == "stage"

    def test_stage_time_accumulates_per_name(self):
        runtime = Runtime()
        for _ in range(2):
            with runtime.stage("stage"):
                pass
        with pytest.raises(ValueError):
            with runtime.stage("stage"):
                raise ValueError("a failing stage still took time")
        hist = runtime.metrics.snapshot().histogram("stage_s", stage="stage")
        assert hist.count == 3


class TestSummaryLine:
    def test_names_the_no_stage_state(self):
        # All-cache-hit runs open no stage; the summary must say so
        # explicitly instead of silently dropping the stage column.
        line = summary_line(Runtime().metrics.snapshot())
        assert "no stages recorded" in line
        assert "stage_time=" not in line

    def test_reports_stage_time(self):
        runtime = Runtime()
        with runtime.stage("stage"):
            time.sleep(0.01)
        snapshot = runtime.metrics.snapshot()
        match = SUMMARY.fullmatch(summary_line(snapshot))
        assert match is not None
        assert "no stages recorded" not in match.group(0)
        assert float(match.group(1)) == round(stage_time_s(snapshot), 2)

    def test_stage_time_excludes_task_time(self):
        runtime = Runtime()
        with runtime.stage("outer"):
            runtime.engine.run(_sleepy_tasks(2, seconds=0.02))
        snapshot = runtime.metrics.snapshot()
        outer = snapshot.histogram_totals("stage_s", "stage")["outer"]
        task_s = snapshot.histogram_totals("task_wall_s", "kind")["runtime_obs.sleepy"]
        assert task_s >= 0.04
        # The tasks ran inside the stage: counting both would double it.
        assert stage_time_s(snapshot) == outer
        assert outer < 1.5 * task_s

    def test_summary_line_excludes_task_time(self):
        runtime = Runtime()
        with runtime.stage("outer"):
            runtime.engine.run(_sleepy_tasks(2, seconds=0.02))
        snapshot = runtime.metrics.snapshot()
        match = SUMMARY.fullmatch(summary_line(snapshot))
        assert match is not None
        outer = snapshot.histogram_totals("stage_s", "stage")["outer"]
        # Stage plus task time would read about twice the real wall time.
        assert float(match.group(1)) < 1.5 * outer


class TestWorkerTime:
    def test_worker_time_per_kind_serial_and_pool(self):
        for jobs in (1, 2):
            engine = TaskEngine(jobs=jobs)
            engine.run(_sleepy_tasks(2))
            snapshot = engine.obs.metrics.snapshot()
            hist = snapshot.histogram("task_wall_s", kind="runtime_obs.sleepy")
            assert hist is not None and hist.count == 2, f"jobs={jobs}"
            assert hist.total >= 0.02, f"jobs={jobs}"
            # One series per kind, whichever process ran the task.
            assert list(snapshot.histogram_totals("task_wall_s", "kind")) == [
                "runtime_obs.sleepy"
            ]
            # Worker time is not a stage.
            assert snapshot.histogram_totals("stage_s", "stage") == {}


class TestRuntimeWiring:
    def test_runtime_uses_given_metrics_and_tracer(self, tmp_path):
        metrics, tracer = Metrics(), Tracer()
        runtime = Runtime(metrics=metrics, tracer=tracer, cache_dir=tmp_path)
        assert runtime.metrics is metrics
        assert runtime.tracer is tracer
        assert runtime.engine.obs is runtime.obs
        assert runtime.cache.metrics is metrics

    def test_labeled_counts_aggregate(self):
        runtime = Runtime()
        runtime.metrics.inc("frames_simulated", 3, phase="a")
        runtime.metrics.inc("frames_simulated", 4, phase="b")
        snapshot = runtime.metrics.snapshot()
        assert snapshot.counter_total("frames_simulated") == 7
        # The unlabeled series alone was never incremented.
        assert snapshot.counter("frames_simulated") == 0
        assert "frames_simulated=7" in summary_line(snapshot)
