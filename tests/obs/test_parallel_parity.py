"""Parallel runs must observe the same workload the serial run does.

The chunking differs (serial submits one task per stage, ``jobs=N``
submits many), but the *workload* counters and the per-frame simulator
spans are chunk-independent: same frames simulated, same frames
clustered, same ``simulate_frame`` span count — and every worker span
stitches into the parent hierarchy via its shipped parent span id.
"""

import os

import pytest

from repro.core.pipeline import SubsettingPipeline
from repro.obs.spans import Tracer
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

SMALL = GameProfile.preset("bioshock1_like").scaled(0.05)
WORKLOAD_COUNTERS = ("frames_simulated", "frames_clustered")


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(SMALL, seed=17).generate(num_frames=8)


@pytest.fixture(scope="module")
def config():
    return GpuConfig.preset("mainstream")


def _run(trace, config, jobs):
    runtime = Runtime(jobs=jobs, tracer=Tracer())
    SubsettingPipeline().run(trace, config, runtime=runtime)
    return runtime


@pytest.mark.usefixtures("pooled_fan_outs")
class TestParallelObservabilityParity:
    def test_workload_counters_and_span_counts_match(self, trace, config):
        serial = _run(trace, config, jobs=1)
        parallel = _run(trace, config, jobs=4)

        serial_counts = serial.metrics.snapshot().counter_totals()
        parallel_counts = parallel.metrics.snapshot().counter_totals()
        for name in WORKLOAD_COUNTERS:
            assert parallel_counts[name] == serial_counts[name], name

        def count(runtime, name):
            return sum(1 for s in runtime.tracer.spans() if s.name == name)

        for name in ("simulate_frame", "pipeline", "ground_truth"):
            assert count(parallel, name) == count(serial, name), name

    def test_labeled_phase_totals_match(self, trace, config):
        serial = _run(trace, config, jobs=1)
        parallel = _run(trace, config, jobs=4)
        for phase in ("ground_truth", "representatives"):
            assert parallel.metrics.snapshot().counter(
                "frames_simulated", phase=phase
            ) == serial.metrics.snapshot().counter("frames_simulated", phase=phase)

    def test_worker_spans_ship_and_stitch(self, trace, config):
        parallel = _run(trace, config, jobs=4)
        spans = parallel.tracer.spans()
        parent_pid = os.getpid()
        worker_spans = [s for s in spans if s.pid != parent_pid]
        assert worker_spans, "jobs=4 must record spans in worker processes"
        known_ids = {s.span_id for s in spans}
        for span in worker_spans:
            if span.category == "task":
                # Worker task roots point at a parent-process span.
                assert span.parent_id in known_ids
                assert span.parent_id.split("-")[0] == str(parent_pid)

    def test_serial_records_no_foreign_pids(self, trace, config):
        serial = _run(trace, config, jobs=1)
        assert {s.pid for s in serial.tracer.spans()} == {os.getpid()}
