"""Render-pass generation: expands a frame's scene state into draw-calls.

Each pass function adds one engine pass's draws to a :class:`FrameBuilder`,
which keeps them as rows of draw-column values and closes each pass with
a :class:`~repro.gfx.frame.PassSpan`.  :func:`build_frame` calls them in
the order a real engine submits them (shadows, opaque/G-buffer, deferred
lighting, transparents, post chain, HUD) and returns the frame built
from one checked :class:`~repro.gfx.drawtable.DrawTable`; no
``DrawCall`` is built.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gfx.drawtable import CODE_OF, VALUE_FIELDS, DrawTable
from repro.gfx.enums import PassType, PrimitiveTopology
from repro.gfx.frame import Frame, PassSpan
from repro.gfx.state import (
    ADDITIVE_STATE,
    FULLSCREEN_STATE,
    OPAQUE_STATE,
    TRANSPARENT_STATE,
    UI_STATE,
    PipelineState,
)
from repro.synth.camera import CameraState, camera_state
from repro.synth.materials import (
    MaterialTables,
    RT_BACKBUFFER,
    RT_DEPTH,
    RT_GBUFFER_BASE,
    RT_HDR0,
    RT_HDR1,
    RT_SHADOW_BASE,
    TEX_PARTICLE_BASE,
    GBUFFER_TARGET_COUNT,
)
from repro.synth.phasescript import Segment, SegmentKind
from repro.synth.profiles import GameProfile
from repro.synth.scene import SceneObject, coverage_factor, visible_objects
from repro.util.rng import make_rng, stable_unit

UI_ATLAS_TEX = TEX_PARTICLE_BASE + 3

# Early-Z efficiency ramp across an opaque pass sorted roughly
# front-to-back: the first draws shade almost everything they rasterize,
# the last draws are mostly occluded.
_EARLY_Z_FIRST = 0.95
_EARLY_Z_LAST = 0.55

_FULLSCREEN_TRI = dict(
    topology=PrimitiveTopology.TRIANGLE_LIST,
    vertex_count=3,
    vertex_stride_bytes=16,
)


class FrameBuilder:
    """One frame's draws as rows of column values, and its pass spans.

    A row holds one draw's ``drawtable.VALUE_FIELDS``: the int values
    (``depth_target_id`` is ``None`` or an id), the enum codes
    (``drawtable.CODE_OF``) and the texture and render-target id tuples.
    :meth:`build` checks them with ``DrawTable.checked``, as the JSON
    loader does, so a generated frame is held to exactly the rules of a
    loaded one.
    """

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.spans: List[PassSpan] = []

    def draw(
        self,
        *,
        shader_id: int,
        state: PipelineState,
        topology: PrimitiveTopology,
        vertex_count: int,
        pixels_rasterized: int,
        pixels_shaded: int,
        texture_ids: Tuple[int, ...],
        render_target_ids: Tuple[int, ...],
        depth_target_id: Optional[int],
        vertex_stride_bytes: int,
        pass_type: PassType,
        instance_count: int = 1,
    ) -> None:
        """Add one draw to the open pass."""
        self.rows.append(
            (
                shader_id,
                vertex_count,
                instance_count,
                pixels_rasterized,
                pixels_shaded,
                vertex_stride_bytes,
                depth_target_id,
                CODE_OF[id(topology)],
                CODE_OF[id(state.depth)],
                CODE_OF[id(state.blend)],
                CODE_OF[id(state.cull)],
                CODE_OF[id(pass_type)],
                texture_ids,
                render_target_ids,
            )
        )

    def end_pass(self, pass_type: PassType, name: str) -> None:
        """Close the open pass: every draw added since the last one."""
        start = self.spans[-1].stop if self.spans else 0
        self.spans.append(PassSpan(pass_type, name, start, len(self.rows)))

    def build(self, index: int, metadata: dict) -> Frame:
        """The frame of every closed pass, over one checked draw table."""
        values = list(zip(*self.rows)) or [()] * len(VALUE_FIELDS)
        return Frame.from_table(index, DrawTable.checked(values), self.spans, metadata)


def _pixel_shares(weights: Sequence[float], budget: int) -> List[int]:
    """Split a pixel budget across draws proportionally to weights."""
    total = float(sum(weights))
    if total <= 0.0 or budget <= 0:
        return [0 for _ in weights]
    return [int(budget * w / total) for w in weights]


def _early_z_fraction(position: int, count: int) -> float:
    if count <= 1:
        return _EARLY_Z_FIRST
    t = position / (count - 1)
    return _EARLY_Z_FIRST + (_EARLY_Z_LAST - _EARLY_Z_FIRST) * t


def _scene_weights(
    objects: Sequence[SceneObject], camera: CameraState, local_frame: int
) -> List[float]:
    return [
        obj.size_weight * coverage_factor(obj, local_frame) * camera.zoom
        for obj in objects
    ]


def shadow_passes(
    frame: FrameBuilder,
    profile: GameProfile,
    tables: MaterialTables,
    visible: Sequence[SceneObject],
    weights: Sequence[float],
) -> None:
    """One depth-only pass per shadowed light over the visible casters."""
    caster_pairs = [
        (obj, w) for obj, w in zip(visible, weights) if obj.caster
    ]
    if not caster_pairs:
        return
    budget = int(profile.shadow_map_size**2 * 1.2)
    shares = _pixel_shares([w for _, w in caster_pairs], budget)
    for light in range(tables.shadowed_lights):
        for (obj, _), rast in zip(caster_pairs, shares):
            shaded = int(rast * 0.85)
            frame.draw(
                shader_id=tables.special.depth_only,
                state=OPAQUE_STATE,
                topology=PrimitiveTopology.TRIANGLE_LIST,
                vertex_count=obj.mesh_vertices,
                pixels_rasterized=rast,
                pixels_shaded=shaded,
                texture_ids=(),
                render_target_ids=(),
                depth_target_id=RT_SHADOW_BASE + light,
                vertex_stride_bytes=16,
                pass_type=PassType.SHADOW,
            )
        frame.end_pass(PassType.SHADOW, f"shadow{light}")


def opaque_pass(
    frame: FrameBuilder,
    profile: GameProfile,
    tables: MaterialTables,
    visible: Sequence[SceneObject],
    weights: Sequence[float],
    camera: CameraState,
) -> None:
    """The main geometry pass: forward-lit or G-buffer fill."""
    deferred = profile.renderer == "deferred"
    # Engines sort opaque geometry by material to amortize pipeline
    # switches, then big-to-small within a material for early-Z.
    order = sorted(
        range(len(visible)), key=lambda i: (visible[i].material, -weights[i])
    )
    # Depth-kill efficiency follows screen-size rank (a proxy for the
    # front-to-back order the depth buffer effectively enforces), not
    # submission position.
    size_rank = {
        i: rank
        for rank, i in enumerate(sorted(range(len(visible)), key=lambda i: -weights[i]))
    }
    budget = int(profile.pixel_budget * camera.overdraw)
    shares = _pixel_shares([weights[i] for i in order], budget)
    if deferred:
        pass_type = PassType.GBUFFER
        target_ids = tuple(RT_GBUFFER_BASE + i for i in range(GBUFFER_TARGET_COUNT))
    else:
        pass_type = PassType.FORWARD
        target_ids = (RT_HDR0,)
    count = len(order)
    for index, rast in zip(order, shares):
        obj = visible[index]
        shaded = int(rast * _early_z_fraction(size_rank[index], count))
        frame.draw(
            shader_id=tables.material_shader[obj.material],
            state=OPAQUE_STATE,
            topology=PrimitiveTopology.TRIANGLE_LIST,
            vertex_count=obj.mesh_vertices,
            pixels_rasterized=rast,
            pixels_shaded=shaded,
            texture_ids=tables.material_textures_for(
                obj.material, obj.texture_variant
            ),
            render_target_ids=target_ids,
            depth_target_id=RT_DEPTH,
            vertex_stride_bytes=32,
            pass_type=pass_type,
        )
    frame.end_pass(pass_type, "opaque")


def lighting_pass(
    frame: FrameBuilder, profile: GameProfile, tables: MaterialTables, zone: int
) -> None:
    """Deferred shading: one directional resolve plus point-light volumes."""
    pixels = profile.pixel_budget
    frame.draw(
        shader_id=tables.special.lighting_directional,
        state=FULLSCREEN_STATE,
        pixels_rasterized=pixels,
        pixels_shaded=pixels,
        texture_ids=tables.gbuffer_texture_ids,
        render_target_ids=(RT_HDR0,),
        depth_target_id=None,
        pass_type=PassType.LIGHTING,
        **_FULLSCREEN_TRI,
    )
    for light in range(profile.num_lights):
        # Each light's screen share is a stable property of the zone layout.
        share = 0.02 + 0.18 * stable_unit("light-share", zone, light)
        rast = int(pixels * share)
        frame.draw(
            shader_id=tables.special.lighting_point,
            state=ADDITIVE_STATE,
            topology=PrimitiveTopology.TRIANGLE_LIST,
            vertex_count=720,
            pixels_rasterized=rast,
            pixels_shaded=int(rast * 0.9),
            texture_ids=tables.gbuffer_texture_ids,
            render_target_ids=(RT_HDR0,),
            depth_target_id=RT_DEPTH,
            vertex_stride_bytes=16,
            pass_type=PassType.LIGHTING,
        )
    frame.end_pass(PassType.LIGHTING, "lighting")


def transparent_pass(
    frame: FrameBuilder,
    profile: GameProfile,
    tables: MaterialTables,
    kind: SegmentKind,
    zone: int,
    local_frame: int,
    rng: np.random.Generator,
) -> None:
    """Particles and other blended effects; no pass when there are none."""
    intensity = {"combat": 2.0, "explore": 1.0, "vista": 0.6, "cutscene": 0.8}.get(
        kind.value, 0.0
    )
    systems = int(round(profile.particle_systems * intensity))
    for system in range(systems):
        additive = stable_unit("particle-mode", zone, system) < 0.6
        instances = 16 + int(
            48 * stable_unit("particle-count", zone, system) * (1 + 0.2 * rng.random())
        )
        share = 0.01 + 0.05 * stable_unit("particle-share", zone, system)
        rast = int(profile.pixel_budget * share)
        frame.draw(
            shader_id=(
                tables.special.particle_additive
                if additive
                else tables.special.particle_alpha
            ),
            state=ADDITIVE_STATE if additive else TRANSPARENT_STATE,
            topology=PrimitiveTopology.TRIANGLE_STRIP,
            vertex_count=4,
            instance_count=instances,
            pixels_rasterized=rast,
            pixels_shaded=int(rast * 0.95),
            texture_ids=(TEX_PARTICLE_BASE + system % 3,),
            render_target_ids=(RT_HDR0,),
            depth_target_id=RT_DEPTH,
            vertex_stride_bytes=20,
            pass_type=PassType.TRANSPARENT,
        )
    if systems > 0:
        frame.end_pass(PassType.TRANSPARENT, "transparent")


def post_pass(
    frame: FrameBuilder,
    profile: GameProfile,
    tables: MaterialTables,
    extra_stages: int = 0,
) -> None:
    """The post-processing chain: fullscreen stages ping-ponging HDR targets."""
    stages = list(tables.special.post)
    stages += stages[-1:] * extra_stages  # e.g. cutscene depth-of-field reuse
    for i, shader_id in enumerate(stages):
        last = i == len(stages) - 1
        half_res = not last and i % 2 == 1
        pixels = profile.pixel_budget // (4 if half_res else 1)
        frame.draw(
            shader_id=shader_id,
            state=FULLSCREEN_STATE,
            pixels_rasterized=pixels,
            pixels_shaded=pixels,
            texture_ids=(tables.scene_color_texture_id,),
            render_target_ids=(
                RT_BACKBUFFER if last else (RT_HDR1 if half_res else RT_HDR0),
            ),
            depth_target_id=None,
            pass_type=PassType.POST,
            **_FULLSCREEN_TRI,
        )
    frame.end_pass(PassType.POST, "post")


def ui_pass(
    frame: FrameBuilder,
    profile: GameProfile,
    tables: MaterialTables,
    kind: SegmentKind,
    rng: np.random.Generator,
) -> None:
    """HUD / menu quads."""
    count = profile.ui_draws * (2 if kind is SegmentKind.MENU else 1)
    if kind is SegmentKind.CUTSCENE:
        count = max(1, count // 4)  # letterboxed: most HUD hidden
    for i in range(count):
        share = 0.001 + 0.008 * stable_unit("ui-share", i)
        rast = max(64, int(profile.pixel_budget * share * (1 + 0.1 * rng.random())))
        frame.draw(
            shader_id=tables.special.ui,
            state=UI_STATE,
            topology=PrimitiveTopology.TRIANGLE_STRIP,
            vertex_count=4,
            pixels_rasterized=rast,
            pixels_shaded=rast,
            texture_ids=(UI_ATLAS_TEX,),
            render_target_ids=(RT_BACKBUFFER,),
            depth_target_id=None,
            vertex_stride_bytes=16,
            pass_type=PassType.UI,
        )
    frame.end_pass(PassType.UI, "ui")


def menu_background_pass(
    frame: FrameBuilder, profile: GameProfile, tables: MaterialTables
) -> None:
    """A menu's animated fullscreen backdrop."""
    frame.draw(
        shader_id=tables.special.post[0],
        state=FULLSCREEN_STATE,
        pixels_rasterized=profile.pixel_budget,
        pixels_shaded=profile.pixel_budget,
        texture_ids=(tables.scene_color_texture_id,),
        render_target_ids=(RT_BACKBUFFER,),
        depth_target_id=None,
        pass_type=PassType.POST,
        **_FULLSCREEN_TRI,
    )
    frame.end_pass(PassType.POST, "menu_bg")


def build_frame(
    profile: GameProfile,
    tables: MaterialTables,
    zone_objects: Sequence[SceneObject],
    segment: Segment,
    local_frame: int,
    frame_index: int,
    seed: int,
) -> Frame:
    """Assemble one complete frame for a segment."""
    rng = make_rng(seed, "frame", profile.name, frame_index)
    kind = segment.kind
    camera = camera_state(kind, local_frame)
    frame = FrameBuilder()

    if kind is SegmentKind.MENU:
        menu_background_pass(frame, profile, tables)
        ui_pass(frame, profile, tables, kind, rng)
    else:
        visible = visible_objects(list(zone_objects), camera.visibility_fraction)
        weights = _scene_weights(visible, camera, local_frame)
        shadow_passes(frame, profile, tables, visible, weights)
        if visible:
            opaque_pass(frame, profile, tables, visible, weights, camera)
        if profile.renderer == "deferred":
            lighting_pass(frame, profile, tables, segment.zone)
        transparent_pass(frame, profile, tables, kind, segment.zone, local_frame, rng)
        extra_post = 2 if kind is SegmentKind.CUTSCENE else 0
        post_pass(frame, profile, tables, extra_stages=extra_post)
        ui_pass(frame, profile, tables, kind, rng)

    metadata = {
        "segment": segment.phase_label,
        "kind": kind.value,
        "zone": segment.zone,
        "local_frame": local_frame,
    }
    return frame.build(frame_index, metadata)
