"""Shared test fixtures: small hand-built traces and GPU configs.

The builders here construct minimal-but-valid worlds so individual tests
can focus on one behaviour.  Synthetic full-game traces come from
``repro.synth`` and are exercised in the synth/integration tests.
"""

from __future__ import annotations

import os

import pytest

from repro.gfx.drawcall import DrawCall
from repro.gfx.enums import PassType, PrimitiveTopology, TextureFormat
from repro.gfx.frame import Frame, RenderPass
from repro.gfx.resources import RenderTargetDesc, TextureDesc
from repro.gfx.shader import make_shader
from repro.gfx.state import FULLSCREEN_STATE, OPAQUE_STATE, TRANSPARENT_STATE
from repro.gfx.trace import Trace

COLOR_RT = 0
DEPTH_RT = 1
POST_RT = 2


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Keep the default artifact cache out of the real ``~/.cache``.

    CLI commands cache by default; pointing ``$REPRO_CACHE_DIR`` at a
    session temp dir keeps test runs hermetic (entries are
    content-addressed, so sharing one dir across tests is harmless).
    """
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("artifact-cache"))
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_store(tmp_path_factory):
    """Keep CLI run recording out of the repository's ``.repro/runs``.

    Every simulating CLI invocation appends a run record by default;
    pointing ``$REPRO_RUN_STORE`` at a session temp dir keeps test runs
    from polluting the committed store.  Tests that exercise the store
    itself override the variable (or pass an explicit store path).
    """
    os.environ["REPRO_RUN_STORE"] = str(tmp_path_factory.mktemp("run-store"))
    yield
    os.environ.pop("REPRO_RUN_STORE", None)


@pytest.fixture(scope="session", autouse=True)
def _isolated_precomp_store(tmp_path_factory):
    """Keep the shared precompute store out of the repository's ``.repro``.

    Simulating tests would otherwise publish ``.fpc`` files into
    ``.repro/precomp`` in the working tree; a session temp dir keeps
    runs hermetic while still exercising the store path end to end.
    Tests that need a private store (or a disabled one) override
    ``$REPRO_PRECOMP_DIR`` per-test via monkeypatch.
    """
    os.environ["REPRO_PRECOMP_DIR"] = str(tmp_path_factory.mktemp("precomp-store"))
    yield
    os.environ.pop("REPRO_PRECOMP_DIR", None)


@pytest.fixture
def pooled_fan_outs(monkeypatch):
    """Send every fan-out of 2 or more frames to the process pool.

    At the real floors every small test trace runs inline, so tests of
    the pool itself lower both of ``Runtime``'s work floors to 1.
    """
    from repro.runtime.engine import Runtime

    monkeypatch.setattr(Runtime, "MIN_TASK_DRAW_CONFIGS", 1)
    monkeypatch.setattr(Runtime, "MIN_TASK_DRAWS", 1)


@pytest.fixture
def simulated_frames(monkeypatch):
    """Record each frame the batch simulator evaluates.

    Every detailed simulation, per-draw outputs or frame totals, prices
    each frame through ``repro.simgpu.batch.simulate_frame_multi``; the
    returned list gets one entry per such evaluation (one frame on all
    of a fan-out's configs), in this process.
    """
    from repro.simgpu import batch

    evaluations = []
    original = batch.simulate_frame_multi

    def counting(*args, **kwargs):
        evaluations.append(args[0].frame_index)
        return original(*args, **kwargs)

    monkeypatch.setattr(batch, "simulate_frame_multi", counting)
    return evaluations


def make_draw(
    shader_id: int = 1,
    vertex_count: int = 300,
    pixels: int = 5000,
    shaded_fraction: float = 0.8,
    texture_ids: tuple = (10,),
    state=OPAQUE_STATE,
    topology=PrimitiveTopology.TRIANGLE_LIST,
    pass_type=PassType.FORWARD,
    instance_count: int = 1,
) -> DrawCall:
    """A valid forward-pass draw with tweakable knobs."""
    return DrawCall(
        shader_id=shader_id,
        state=state,
        topology=topology,
        vertex_count=vertex_count,
        instance_count=instance_count,
        pixels_rasterized=pixels,
        pixels_shaded=int(pixels * shaded_fraction),
        texture_ids=texture_ids,
        render_target_ids=(COLOR_RT,),
        depth_target_id=DEPTH_RT if state.depth.reads_depth else None,
        pass_type=pass_type,
    )


def make_world(draw_lists, name: str = "test-trace") -> Trace:
    """Build a trace from per-frame lists of draws, with consistent tables.

    All shader ids and texture ids appearing in the draws get table entries
    automatically, so tests can invent ids freely.
    """
    shader_ids = set()
    texture_ids = set()
    for draws in draw_lists:
        for d in draws:
            shader_ids.add(d.shader_id)
            texture_ids.update(d.texture_ids)
    shaders = {
        sid: make_shader(
            sid, f"shader{sid}", vs_alu=10 + sid, ps_alu=20 + 2 * sid, ps_tex=2
        )
        for sid in shader_ids
    }
    textures = {
        tid: TextureDesc(tid, 256, 256, TextureFormat.BC1, mip_levels=5)
        for tid in texture_ids
    }
    render_targets = {
        COLOR_RT: RenderTargetDesc(COLOR_RT, 1280, 720, TextureFormat.RGBA8),
        DEPTH_RT: RenderTargetDesc(DEPTH_RT, 1280, 720, TextureFormat.DEPTH24S8),
        POST_RT: RenderTargetDesc(POST_RT, 1280, 720, TextureFormat.RGBA16F),
    }
    frames = tuple(
        Frame(
            index=i,
            passes=(
                RenderPass(pass_type=PassType.FORWARD, draws=tuple(draws)),
            ),
        )
        for i, draws in enumerate(draw_lists)
    )
    return Trace(
        name=name,
        frames=frames,
        shaders=shaders,
        textures=textures,
        render_targets=render_targets,
    )


@pytest.fixture
def simple_draw() -> DrawCall:
    return make_draw()

@pytest.fixture
def simple_trace() -> Trace:
    """Three frames, mixed shaders, enough variety for clustering tests."""
    frames = []
    for f in range(3):
        draws = [
            make_draw(shader_id=1, vertex_count=300 + 30 * i, pixels=4000 + 100 * i)
            for i in range(8)
        ]
        draws += [
            make_draw(
                shader_id=2,
                vertex_count=60,
                pixels=20000,
                state=TRANSPARENT_STATE,
                texture_ids=(11, 12),
            )
            for _ in range(4)
        ]
        draws.append(
            make_draw(
                shader_id=3,
                vertex_count=3,
                pixels=1280 * 720,
                shaded_fraction=1.0,
                state=FULLSCREEN_STATE,
                texture_ids=(),
                pass_type=PassType.POST,
            )
        )
        frames.append(draws)
    return make_world(frames)
