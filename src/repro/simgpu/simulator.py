"""The GPU simulator: drives the cost model over frames and traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.frame import Frame
from repro.gfx.trace import Trace
from repro.simgpu.config import GpuConfig
from repro.simgpu.cost import DrawCost, draw_cost
from repro.simgpu.state_tracker import StateTracker
from repro.util.stats import sum_in_order


@dataclass(frozen=True)
class FrameResult:
    """Simulation result for one frame."""

    frame_index: int
    num_draws: int
    time_ns: float
    core_cycles: float
    dram_cycles: float
    pass_times_ns: Dict[str, float] = field(default_factory=dict)
    draw_costs: Optional[Tuple[DrawCost, ...]] = None

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    def draw_times_ns(self) -> Tuple[float, ...]:
        """Per-draw wall times; requires the frame was simulated with detail."""
        if self.draw_costs is None:
            raise SimulationError(
                "frame was simulated without keep_draw_costs=True"
            )
        return tuple(cost.time_ns for cost in self.draw_costs)


@dataclass(frozen=True)
class TraceResult:
    """Simulation result for a whole trace."""

    trace_name: str
    config_name: str
    frame_results: Tuple[FrameResult, ...]

    @property
    def total_time_ns(self) -> float:
        return sum_in_order([fr.time_ns for fr in self.frame_results])

    @property
    def total_time_ms(self) -> float:
        return self.total_time_ns / 1e6

    @property
    def frame_times_ns(self) -> Tuple[float, ...]:
        return tuple(fr.time_ns for fr in self.frame_results)

    @property
    def mean_fps(self) -> float:
        mean_frame_s = self.total_time_ns / len(self.frame_results) / 1e9
        return 1.0 / mean_frame_s


class GpuSimulator:
    """Simulates traces on one architecture configuration.

    The simulator is stateless between calls; each frame gets a fresh
    :class:`StateTracker`, making frames independent and per-frame
    prediction well defined.
    """

    def __init__(self, config: GpuConfig) -> None:
        if not isinstance(config, GpuConfig):
            raise SimulationError(
                f"config must be GpuConfig, got {type(config).__name__}"
            )
        self.config = config

    # -- frames ----------------------------------------------------------------

    def simulate_frame(
        self, frame: Frame, trace: Trace, keep_draw_costs: bool = False
    ) -> FrameResult:
        """Simulate one frame in submission order."""
        if frame.num_draws == 0:
            raise SimulationError(f"frame {frame.index} has no draws")
        tracker = StateTracker(self.config)
        tracker.begin_frame()
        costs: List[DrawCost] = []
        pass_times: Dict[str, float] = {}
        position = 0
        for render_pass in frame.passes:
            pass_ns = 0.0
            for draw in render_pass.draws:
                cost = self._one_draw(draw, trace, tracker, frame.index, position)
                costs.append(cost)
                pass_ns += cost.time_ns
                position += 1
            key = render_pass.pass_type.value
            pass_times[key] = pass_times.get(key, 0.0) + pass_ns
        return FrameResult(
            frame_index=frame.index,
            num_draws=frame.num_draws,
            time_ns=sum(c.time_ns for c in costs),
            core_cycles=sum(c.core_cycles for c in costs),
            dram_cycles=sum(c.dram_cycles for c in costs),
            pass_times_ns=pass_times,
            draw_costs=tuple(costs) if keep_draw_costs else None,
        )

    # -- traces ----------------------------------------------------------------

    def simulate_trace(
        self, trace: Trace, keep_draw_costs: bool = False
    ) -> TraceResult:
        """Simulate every frame of a trace."""
        frame_results = tuple(
            self.simulate_frame(frame, trace, keep_draw_costs=keep_draw_costs)
            for frame in trace.frames
        )
        return TraceResult(
            trace_name=trace.name,
            config_name=self.config.name,
            frame_results=frame_results,
        )

    # -- internals ---------------------------------------------------------------

    def _one_draw(
        self,
        draw: DrawCall,
        trace: Trace,
        tracker: StateTracker,
        frame_index: int,
        position: int,
    ) -> DrawCost:
        shader = trace.shader(draw.shader_id)
        textures = [trace.texture(tid) for tid in draw.texture_ids]
        color_targets = [trace.render_target(rid) for rid in draw.render_target_ids]
        depth_target = (
            trace.render_target(draw.depth_target_id)
            if draw.depth_target_id is not None
            else None
        )
        effects = tracker.observe(draw, textures)
        return draw_cost(
            draw=draw,
            shader=shader,
            textures=textures,
            color_targets=color_targets,
            depth_target=depth_target,
            config=self.config,
            effects=effects,
            noise_key=(frame_index, position),
        )
