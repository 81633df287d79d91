"""Synthetic game-workload generation.

Substitutes for the paper's proprietary game traces (DESIGN.md section 2).
A :class:`~repro.synth.profiles.GameProfile` describes a game's rendering
architecture and content statistics; :class:`~repro.synth.generator.TraceGenerator`
expands it — deterministically from a seed — into a full
:class:`~repro.gfx.trace.Trace` with:

- engine-realistic frame structure (shadow maps, G-buffer or forward
  opaque, lighting, transparents, post-processing chain, HUD);
- heavy intra-frame draw redundancy (many instances of few material and
  mesh classes), which is what makes per-frame clustering effective;
- segment-scripted inter-frame phase structure (menu, explore, combat,
  cutscene, vista over a handful of level zones), which is what
  shader-vector phase detection extracts.

Ground-truth segment boundaries are recorded in ``trace.metadata`` so
phase-detection quality can be evaluated against them.
"""
