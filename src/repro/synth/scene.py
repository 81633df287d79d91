"""Scene population: the objects living in each level zone.

Objects are drawn from a small set of mesh classes (game assets are
heavily reused), each bound to one material class from the zone's
palette.  This reuse is the source of the intra-frame draw-call
redundancy the paper's clustering exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from repro.synth.materials import MaterialTables
from repro.synth.profiles import GameProfile
from repro.util.rng import make_rng, stable_unit


@dataclass(frozen=True)
class SceneObject:
    """One renderable object instance in a zone."""

    object_id: int
    zone: int
    mesh_vertices: int
    material: int
    texture_variant: int  # which albedo variant of the material it binds
    size_weight: float  # relative on-screen area when visible
    caster: bool  # casts into shadow maps
    anim_phase: float  # phase offset for per-frame coverage wobble

    @cached_property
    def visibility_key(self) -> float:
        """Stable per-object threshold deciding visibility vs camera.

        Hashed once per object: it depends only on ``(zone, object_id)``,
        and the zone's objects are reused by every frame in it.
        """
        return stable_unit("visibility", self.zone, self.object_id)


def mesh_class_vertices(profile: GameProfile) -> Tuple[int, ...]:
    """Vertex counts of the game's mesh classes (geometric ladder).

    Spans props (~60 verts) to hero meshes (~9000), matching the
    long-tailed geometry distributions of real titles.
    """
    lo, hi = 60.0, 9000.0
    n = profile.mesh_classes
    if n == 1:
        return (int(lo),)
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return tuple(int(round(lo * ratio**i)) for i in range(n))


def build_zone(
    profile: GameProfile, tables: MaterialTables, zone: int, seed: int
) -> List[SceneObject]:
    """Populate one zone with objects, deterministically from the seed."""
    if not 0 <= zone < profile.num_zones:
        raise ValueError(
            f"zone {zone} out of range [0, {profile.num_zones}) for "
            f"profile {profile.name!r}"
        )
    rng = make_rng(seed, "scene", profile.name, zone)
    mesh_verts = mesh_class_vertices(profile)
    palette = tables.zone_materials[zone]
    objects: List[SceneObject] = []
    for object_id in range(profile.objects_per_zone):
        # Small props dominate; hero meshes are rare (zipf-ish class pick).
        rank = rng.zipf(1.4)
        mesh_class = min(len(mesh_verts) - 1, int(rank) - 1)
        # Every asset is an individual: jitter around its class's budget.
        verts = max(3, round(mesh_verts[mesh_class] * rng.lognormal(0.0, 0.35)))
        material = int(palette[rng.integers(0, len(palette))])
        # On-screen area grows sub-linearly with geometric detail.
        size = (verts**0.6) * float(rng.lognormal(mean=0.0, sigma=0.45))
        objects.append(
            SceneObject(
                object_id=object_id,
                zone=zone,
                mesh_vertices=verts,
                material=material,
                texture_variant=int(rng.integers(0, 64)),
                size_weight=size,
                caster=bool(rng.random() < profile.shadow_caster_fraction),
                anim_phase=float(rng.random()),
            )
        )
    return objects


def visible_objects(
    objects: List[SceneObject], visibility_fraction: float
) -> List[SceneObject]:
    """Objects on screen at a given camera visibility fraction.

    Each object has a stable threshold, so small changes in the fraction
    churn only the boundary objects — consecutive frames see almost the
    same set, the way a slowly moving camera does.
    """
    if not 0.0 <= visibility_fraction <= 1.0:
        raise ValueError(
            f"visibility_fraction must be in [0, 1], got {visibility_fraction}"
        )
    return [o for o in objects if o.visibility_key < visibility_fraction]


def coverage_factor(obj: SceneObject, local_frame: int, wobble: float = 0.18) -> float:
    """Per-frame multiplier on an object's screen area.

    A smooth pseudo-orbit: each object's area breathes sinusoidally with
    its own phase as the camera tracks through the zone.
    """
    angle = 2.0 * math.pi * (local_frame / 48.0 + obj.anim_phase)
    return 1.0 + wobble * math.sin(angle)
