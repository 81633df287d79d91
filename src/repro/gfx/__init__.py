"""3D workload model: shaders, resources, draw-calls, frames, traces.

This subpackage models the *API stream* of a 3D game — the information a
graphics-API capture tool sees — independent of any GPU micro-architecture.
It is the substrate on which both the synthetic workload generator
(:mod:`repro.synth`) and the performance model (:mod:`repro.simgpu`) operate,
and the source of the micro-architecture-independent draw-call
characteristics the paper clusters on (:mod:`repro.core.features`).
A frame stores its draws as numpy columns (:class:`DrawTable`);
:class:`DrawCall` is the one-draw view of a row.
"""

from repro.gfx.drawcall import DrawCall
from repro.gfx.drawtable import DrawTable
from repro.gfx.enums import (
    BlendMode,
    CullMode,
    DepthMode,
    PassType,
    PrimitiveTopology,
    TextureFormat,
)
from repro.gfx.frame import Frame, PassSpan, RenderPass
from repro.gfx.resources import BufferDesc, RenderTargetDesc, TextureDesc
from repro.gfx.shader import ShaderProgram, ShaderStats
from repro.gfx.state import PipelineState
from repro.gfx.trace import Trace, TraceStats
from repro.gfx.traceio import load_trace, read_trace, save_trace, write_trace
from repro.gfx.validate import validate_trace

__all__ = [
    "BlendMode",
    "CullMode",
    "DepthMode",
    "PassType",
    "PrimitiveTopology",
    "TextureFormat",
    "ShaderStats",
    "ShaderProgram",
    "TextureDesc",
    "BufferDesc",
    "RenderTargetDesc",
    "PipelineState",
    "DrawCall",
    "DrawTable",
    "RenderPass",
    "PassSpan",
    "Frame",
    "Trace",
    "TraceStats",
    "save_trace",
    "load_trace",
    "read_trace",
    "write_trace",
    "validate_trace",
]
