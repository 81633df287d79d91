"""Tests for the task engine: fan-out, pools, global RNG, failures."""

import os
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs.context import current_obs
from repro.runtime.engine import Runtime, TaskEngine, _chunk_ranges, available_cpus
from repro.runtime.tasks import Task, task_function

# Test task kinds register at import time; worker processes inherit them
# through the fork start method.


@task_function("test.double")
def _double(context, payload):
    return payload * 2


@task_function("test.with_context")
def _with_context(context, payload):
    return context + payload


@task_function("test.boom")
def _boom(context, payload):
    raise ValueError("boom from task body")


@task_function("test.counted")
def _counted(context, payload):
    current_obs().metrics.inc("widgets_made", payload)
    return payload


@task_function("test.pid")
def _pid(context, payload):
    return os.getpid()


@task_function("test.sleep")
def _sleep(context, payload):
    time.sleep(payload)
    return payload


def _fan_out(n):
    return [Task(f"t{i}", "test.double", payload=i) for i in range(n)]


class TestGraphValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown task kind"):
            TaskEngine().run([Task("a", "no.such.kind")])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            TaskEngine(jobs=0)
        with pytest.raises(ConfigError):
            TaskEngine(jobs=True)
        with pytest.raises(ConfigError):
            TaskEngine(jobs=2.0)


class TestExecution:
    def test_serial_fan_out(self):
        results = TaskEngine(jobs=1).run(_fan_out(7))
        assert results == [2 * i for i in range(7)]

    def test_parallel_matches_serial(self):
        serial = TaskEngine(jobs=1).run(_fan_out(9))
        parallel = TaskEngine(jobs=3).run(_fan_out(9))
        assert parallel == serial

    def test_context_ships_to_workers(self):
        tasks = [Task(f"t{i}", "test.with_context", i) for i in range(4)]
        for jobs in (1, 2):
            results = TaskEngine(jobs=jobs).run(tasks, context=100)
            assert results == [100 + i for i in range(4)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_values_in_submission_order_when_first_finishes_last(self, jobs):
        # The first task sleeps while the other three complete, so the
        # pool sees completions out of submission order.
        engine = TaskEngine(jobs=jobs)
        tasks = [
            Task(f"s{i}", "test.sleep", payload=seconds)
            for i, seconds in enumerate([0.3, 0, 0, 0])
        ]
        assert engine.run(tasks) == [0.3, 0, 0, 0]
        assert engine.obs.metrics.counter_total("tasks_run") == 4


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_type_propagates(self, jobs):
        engine = TaskEngine(jobs=jobs)
        with pytest.raises(ValueError, match="boom from task body"):
            engine.run([Task("a", "test.boom")])
        assert engine.obs.metrics.counter_total("tasks_failed") == 1

    def test_failure_does_not_poison_engine(self):
        engine = TaskEngine(jobs=2)
        with pytest.raises(ValueError):
            engine.run([Task("a", "test.boom")])
        assert engine.run(_fan_out(3)) == [0, 2, 4]

    def test_unpicklable_payload_raises_cleanly(self):
        # Must raise in the parent, not deadlock the executor's feeder
        # thread (CPython 3.11 hangs shutdown() on feeder pickling errors).
        tasks = [Task(f"t{i}", "test.double", 1) for i in range(4)]
        tasks.append(Task("bad", "test.double", lambda: 1))
        with pytest.raises(ConfigError, match="bad.*cannot be sent"):
            TaskEngine(jobs=2).run(tasks, context={"shared": True})


class TestGlobalRng:
    def test_inline_clustering_leaves_the_callers_stream_alone(self):
        from repro import datasets
        from repro.core.pipeline import SubsettingPipeline

        trace = datasets.load("bioshock1_like", frames=4, seed=0, scale=0.1)
        np.random.seed(123)
        SubsettingPipeline().cluster_all_frames(trace, runtime=Runtime())
        assert np.random.random() == 0.6964691855978616


class TestWorkerCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_merge_into_parent(self, jobs):
        engine = TaskEngine(jobs=jobs)
        engine.run([Task(f"c{i}", "test.counted", payload=i) for i in range(4)])
        snapshot = engine.obs.metrics.snapshot()
        assert snapshot.counter_total("widgets_made") == 0 + 1 + 2 + 3
        assert snapshot.counter_total("tasks_run") == 4


class TestChunkRanges:
    def test_covers_exactly(self):
        for n in (1, 5, 16, 17):
            for chunks in (1, 3, 8, 40):
                ranges = _chunk_ranges(n, chunks)
                flat = [i for start, stop in ranges for i in range(start, stop)]
                assert flat == list(range(n))

    def test_balanced(self):
        sizes = [stop - start for start, stop in _chunk_ranges(10, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_zero_items(self):
        assert _chunk_ranges(0, 4) == [(0, 0)]

    def test_fewer_items_than_chunks(self):
        assert _chunk_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_exact_multiple(self):
        assert _chunk_ranges(16, 4) == [(0, 4), (4, 8), (8, 12), (12, 16)]


class TestSingleTaskInline:
    def test_one_pending_task_runs_in_parent(self):
        # One task must not pay pool startup: it runs inline even on a
        # parallel engine.
        results = TaskEngine(jobs=4).run([Task("only", "test.pid")])
        assert results == [os.getpid()]

    def test_multi_task_graph_still_uses_workers(self):
        tasks = [Task(f"p{i}", "test.pid") for i in range(4)]
        results = TaskEngine(jobs=2).run(tasks)
        assert any(pid != os.getpid() for pid in results)


FLOOR = 1000  # work units per task in the pure partition tests below


class TestAdaptiveRuntime:
    """One rule sizes every fan-out by its work, under any ``jobs``."""

    def test_auto_resolves_to_host_cpus(self):
        assert Runtime(jobs="auto").jobs == available_cpus()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
    )
    def test_auto_counts_only_the_cpus_it_may_run_on(self):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: pin to one CPU, report what "auto" resolves to
            try:
                os.close(read_fd)
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
                os.write(write_fd, str(Runtime(jobs="auto").jobs).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as reader:
            reported = reader.read()
        os.waitpid(pid, 0)
        assert reported == "1"

    def test_jobs_one_is_one_range_at_any_work(self):
        runtime = Runtime(jobs=1)
        for work in (0, 1, FLOOR, 2 * FLOOR, 10**12):
            assert runtime._ranges(8, work, FLOOR) == [(0, 8)]

    def test_small_workload_gets_single_range(self):
        runtime = Runtime(jobs=4)
        assert runtime._ranges(8, 0, FLOOR) == [(0, 8)]
        assert runtime._ranges(8, FLOOR, FLOOR) == [(0, 8)]
        assert runtime._ranges(8, 2 * FLOOR - 1, FLOOR) == [(0, 8)]
        assert runtime._ranges(8, 2 * FLOOR, FLOOR) == [(0, 4), (4, 8)]

    def test_large_workload_chunks_with_floor(self):
        runtime = Runtime(jobs=2)
        most = 2 * Runtime.CHUNKS_PER_JOB
        assert len(runtime._ranges(64, 10**12, FLOOR)) == most
        assert len(runtime._ranges(64, most * FLOOR, FLOOR)) == most
        assert len(runtime._ranges(64, (most - 1) * FLOOR, FLOOR)) == most - 1

    def test_explicit_jobs_partition_unchanged(self):
        # Above the floors a fan-out keeps the jobs * CHUNKS_PER_JOB ranges.
        runtime = Runtime(jobs=4)
        assert runtime._ranges(8, 10**12, FLOOR) == [
            (0, 1), (1, 2), (2, 3), (3, 4),
            (4, 5), (5, 6), (6, 7), (7, 8),
        ]

    def test_ranges_are_contiguous_and_cover_every_frame(self):
        for jobs in (1, 2, 3, 4):
            runtime = Runtime(jobs=jobs)
            for num_frames in (0, 1, 5, 17, 64):
                for work in (0, FLOOR, 3 * FLOOR, 7 * FLOOR, 10**12):
                    ranges = runtime._ranges(num_frames, work, FLOOR)
                    flat = [i for start, stop in ranges for i in range(start, stop)]
                    assert flat == list(range(num_frames))

    def test_auto_follows_the_same_rule(self):
        auto = Runtime(jobs="auto")
        explicit = Runtime(jobs=auto.jobs)
        for work in (0, FLOOR, 2 * FLOOR, 5 * FLOOR, 10**12):
            assert auto._ranges(40, work, FLOOR) == explicit._ranges(40, work, FLOOR)

    def test_bad_jobs_string_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            Runtime(jobs="fast")

    def test_auto_matches_serial_results(self, simple_trace):
        from repro.simgpu.config import GpuConfig

        config = GpuConfig.preset("mainstream")
        reference = Runtime().simulate_trace(simple_trace, config)
        adaptive = Runtime(jobs="auto").simulate_trace(simple_trace, config)
        assert adaptive == reference
