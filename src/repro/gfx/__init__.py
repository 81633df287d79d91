"""3D workload model: shaders, resources, draw-calls, frames, traces.

This subpackage models the *API stream* of a 3D game — the information a
graphics-API capture tool sees — independent of any GPU micro-architecture.
It is the substrate on which both the synthetic workload generator
(:mod:`repro.synth`) and the performance model (:mod:`repro.simgpu`) operate,
and the source of the micro-architecture-independent draw-call
characteristics the paper clusters on (:mod:`repro.core.features`).
A frame stores its draws as numpy columns
(:class:`~repro.gfx.drawtable.DrawTable`);
:class:`~repro.gfx.drawcall.DrawCall` is the one-draw view of a row.
"""
