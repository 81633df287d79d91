"""Tests for GpuSimulator frame/trace simulation."""

import pytest

from repro.errors import SimulationError
from repro.gfx.frame import Frame, frame_from_draws
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator

from tests.conftest import make_draw, make_world

CFG = GpuConfig()


class TestSimulateFrame:
    def test_frame_time_is_sum_of_draws(self, simple_trace):
        sim = GpuSimulator(CFG)
        result = sim.simulate_frame(simple_trace.frames[0], simple_trace, keep_draw_costs=True)
        assert result.time_ns == pytest.approx(sum(result.draw_times_ns()))

    def test_pass_times_sum_to_frame_time(self, simple_trace):
        sim = GpuSimulator(CFG)
        result = sim.simulate_frame(simple_trace.frames[0], simple_trace)
        assert sum(result.pass_times_ns.values()) == pytest.approx(result.time_ns)

    def test_draw_times_requires_detail(self, simple_trace):
        sim = GpuSimulator(CFG)
        result = sim.simulate_frame(simple_trace.frames[0], simple_trace)
        with pytest.raises(SimulationError, match="keep_draw_costs"):
            result.draw_times_ns()

    def test_empty_frame_rejected(self, simple_trace):
        sim = GpuSimulator(CFG)
        empty = Frame(index=0, passes=())
        with pytest.raises(SimulationError, match="no draws"):
            sim.simulate_frame(empty, simple_trace)

    def test_frames_are_independent(self):
        # The same draws produce the same time whether simulated as frame 0
        # or after other frames (tracker resets per frame); only the noise
        # slot (frame index) differs, bounded by the amplitude.
        draws = [make_draw(shader_id=1), make_draw(shader_id=2)]
        trace = make_world([draws, draws])
        sim = GpuSimulator(CFG.scaled(noise_amplitude=0.0))
        r0 = sim.simulate_frame(trace.frames[0], trace)
        r1 = sim.simulate_frame(trace.frames[1], trace)
        assert r0.time_ns == pytest.approx(r1.time_ns)

    def test_order_dependence_within_frame(self):
        # Grouping draws by shader costs less than interleaving them.
        a = [make_draw(shader_id=1, texture_ids=(1,)) for _ in range(4)]
        b = [make_draw(shader_id=2, texture_ids=(2,)) for _ in range(4)]
        grouped = a + b
        interleaved = [a[0], b[0], a[1], b[1], a[2], b[2], a[3], b[3]]
        trace = make_world([grouped, interleaved])
        sim = GpuSimulator(CFG.scaled(noise_amplitude=0.0))
        t_grouped = sim.simulate_frame(trace.frames[0], trace).time_ns
        t_interleaved = sim.simulate_frame(trace.frames[1], trace).time_ns
        assert t_interleaved > t_grouped


class TestSimulateTrace:
    def test_total_is_sum_of_frames(self, simple_trace):
        sim = GpuSimulator(CFG)
        result = sim.simulate_trace(simple_trace)
        assert result.total_time_ns == pytest.approx(
            sum(result.frame_times_ns)
        )
        assert len(result.frame_results) == simple_trace.num_frames

    def test_result_names(self, simple_trace):
        result = GpuSimulator(CFG).simulate_trace(simple_trace)
        assert result.trace_name == simple_trace.name
        assert result.config_name == CFG.name

    def test_mean_fps_positive(self, simple_trace):
        result = GpuSimulator(CFG).simulate_trace(simple_trace)
        assert result.mean_fps > 0

    def test_deterministic(self, simple_trace):
        a = GpuSimulator(CFG).simulate_trace(simple_trace)
        b = GpuSimulator(CFG).simulate_trace(simple_trace)
        assert a.frame_times_ns == b.frame_times_ns

    def test_bad_config_rejected(self):
        with pytest.raises(SimulationError, match="GpuConfig"):
            GpuSimulator("mainstream")  # type: ignore[arg-type]


class TestSimulateDraws:
    def test_subset_costs_differ_from_in_context(self, simple_trace):
        # Simulating a draw alone (cold context) differs from its cost deep
        # inside a frame (warm textures, amortized switches).
        sim = GpuSimulator(CFG)
        frame = simple_trace.frames[0]
        full = sim.simulate_frame(frame, simple_trace, keep_draw_costs=True)
        alone = sim.simulate_frame(
            frame_from_draws(frame.index, [frame.draw_list[5]]),
            simple_trace,
            keep_draw_costs=True,
        )
        in_context = full.draw_costs[5]
        assert alone.draw_costs[0].time_ns != pytest.approx(
            in_context.time_ns, rel=1e-6
        )
