"""GPU performance model — the paper's simulator substitute.

The model estimates per-draw-call cost on a configurable GPU by computing
the cycles each pipeline stage (vertex shading, rasterization, pixel
shading, texturing, ROP) and the memory system would need, then combining
them under a pipelined-bottleneck assumption.  Order-dependent effects
(texture-cache warmth, pipeline state changes) are tracked across the
draws of a frame, so a draw's cost depends on its context — exactly the
micro-architecture-*dependent* residual the paper's clustering features
cannot see and must tolerate.

Two execution paths produce identical numbers:

- :class:`GpuSimulator` — the authoritative per-draw sequential model.
- :mod:`repro.simgpu.batch` — a numpy-vectorized path for paper-scale
  corpora (hundreds of thousands of draws).
"""

from repro.simgpu.config import GpuConfig
from repro.simgpu.cost import DrawCost
from repro.simgpu.simulator import FrameResult, GpuSimulator, TraceResult

__all__ = [
    "GpuConfig",
    "DrawCost",
    "GpuSimulator",
    "FrameResult",
    "TraceResult",
]
