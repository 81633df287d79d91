"""Result-object API tests: FrameResult / TraceResult / DrawCost."""

import pytest

from repro.simgpu.config import GpuConfig
from repro.simgpu.cost import STAGE_NAMES
from repro.simgpu.simulator import FrameResult, GpuSimulator, TraceResult

from tests.conftest import make_draw, make_world

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def results():
    trace = make_world([[make_draw() for _ in range(4)] for _ in range(3)])
    sim = GpuSimulator(CFG)
    return trace, sim.simulate_trace(trace, keep_draw_costs=True)


class TestResultObjects:
    def test_time_unit_conversions(self, results):
        _, trace_result = results
        frame = trace_result.frame_results[0]
        assert frame.time_ms == pytest.approx(frame.time_ns / 1e6)
        assert trace_result.total_time_ms == pytest.approx(
            trace_result.total_time_ns / 1e6
        )

    def test_mean_fps_consistent(self, results):
        _, trace_result = results
        mean_frame_s = (
            trace_result.total_time_ns / len(trace_result.frame_results) / 1e9
        )
        assert trace_result.mean_fps == pytest.approx(1.0 / mean_frame_s)

    def test_stage_cycles_align_with_names(self, results):
        _, trace_result = results
        cost = trace_result.frame_results[0].draw_costs[0]
        stages = cost.stage_cycles
        assert len(stages) == len(STAGE_NAMES)
        named = dict(zip(STAGE_NAMES, stages))
        assert named["vertex"] == cost.vertex_cycles
        assert named["pixel"] == cost.pixel_cycles
        assert named["rop"] == cost.rop_cycles

    def test_frame_results_ordered_by_frame(self, results):
        _, trace_result = results
        indices = [fr.frame_index for fr in trace_result.frame_results]
        assert indices == sorted(indices)

    def test_core_cycles_sum(self, results):
        _, trace_result = results
        frame = trace_result.frame_results[0]
        assert frame.core_cycles == pytest.approx(
            sum(c.core_cycles for c in frame.draw_costs)
        )

    def test_traffic_totals(self, results):
        _, trace_result = results
        cost = trace_result.frame_results[0].draw_costs[0]
        assert cost.traffic.total_bytes == pytest.approx(
            cost.traffic.vertex_bytes
            + cost.traffic.texture_bytes
            + cost.traffic.rt_bytes
        )


def test_total_adds_frame_times_left_to_right():
    # Left to right, each 1e-16 is lost against 1.0; Python 3.12's
    # compensated builtin sum() would return 1.0000000000000002.
    frames = tuple(
        FrameResult(frame_index=i, num_draws=1, time_ns=t, core_cycles=0.0, dram_cycles=0.0)
        for i, t in enumerate([1.0, 1e-16, 1e-16])
    )
    result = TraceResult(trace_name="t", config_name="c", frame_results=frames)
    assert result.total_time_ns == 1.0
