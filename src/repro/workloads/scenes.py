"""Scene construction: mesh pools, object placement, shadow volumes.

A scene is a list of placed object instances over a shared mesh library —
the same instancing structure games use, which is what makes startup uploads
small relative to per-frame index traffic (the paper's indexed-mode
observation in Section III.A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.generators import (
    ShadowCaster,
    box_mesh,
    character_mesh,
    cylinder_mesh,
    grid_mesh,
    room_mesh,
    terrain_mesh,
)
from repro.geometry.mesh import Mesh
from repro.geometry.primitives import PrimitiveType
from repro.util.mathutil import rotate_x, rotate_y, translate
from repro.workloads.spec import EngineParams


@dataclass
class SceneObject:
    """One placed instance: mesh + transform + material + rooms/caster info."""

    mesh: str
    model: np.ndarray
    center: np.ndarray
    radius: float
    material: int
    room: int
    caster: bool = False
    volume_meshes: tuple[str, ...] = ()  # one per room light index
    region: int = 0  # terrain scenes: 0 = castle, 1 = countryside
    force_alpha: bool = False  # foliage curtains always use a KIL material


def room_light_positions(params: EngineParams, room: int) -> list[np.ndarray]:
    """Light positions for one room: wall sconces plus ceiling fixtures.

    Most lights sit low on the walls (the Doom3 look), so shadow volumes
    sweep near-horizontally through open air before terminating in the
    opposite wall — which is what makes most volume fragments pass the
    depth test (ending up color-masked, Table IX) instead of failing it.
    """
    width, height, length = params.room_size
    room_z = -(room + 0.5) * length
    # (x offset, z offset, height fraction)
    placements = [
        (-width * 0.42, length * 0.22, 0.45),
        (width * 0.42, -length * 0.22, 0.45),
        (-width * 0.42, -length * 0.3, 0.42),
        (width * 0.42, length * 0.3, 0.42),
        (0.0, length * 0.42, 0.5),
        (0.0, 0.0, 0.92),
    ]
    positions = []
    for k in range(params.lights):
        ox, oz, hf = placements[k % len(placements)]
        positions.append(np.array([ox, height * hf, room_z + oz]))
    return positions


@dataclass
class Scene:
    meshes: dict[str, Mesh] = field(default_factory=dict)
    objects: list[SceneObject] = field(default_factory=list)
    room_length: float = 22.0
    rooms: int = 0

    def objects_in_rooms(self, rooms: set[int]) -> list[SceneObject]:
        return [o for o in self.objects if o.room in rooms]


def _prop_mesh(
    name: str,
    archetype: int,
    tris: int,
    rng: np.random.Generator,
    primitive: PrimitiveType,
    index_size: int,
    size: float = 1.0,
) -> Mesh:
    """A prop mesh of roughly ``tris`` triangles of the given archetype."""
    tris = max(12, tris)
    if primitive is PrimitiveType.TRIANGLE_FAN:
        # A fan disc: tris triangles around a center.
        segments = max(3, tris)
        angles = np.linspace(0.0, 2 * math.pi, segments + 1)
        radius = 0.9 * size
        positions = [(0.0, 0.02, 0.0)]
        positions += [
            (radius * math.cos(a), 0.02, radius * math.sin(a)) for a in angles
        ]
        indices = list(range(segments + 2))
        return Mesh(
            name,
            np.asarray(positions),
            np.asarray(indices, dtype=np.int32),
            primitive=PrimitiveType.TRIANGLE_FAN,
            uvs=np.asarray([(p[0] + 1, p[2] + 1) for p in positions]) / 2.0,
            index_size_bytes=index_size,
        )
    if primitive is PrimitiveType.TRIANGLE_STRIP:
        cells = max(1, int(math.sqrt(tris / 2.0)))
        return grid_mesh(
            name,
            cells,
            cells,
            1.8 * size,
            1.8 * size,
            primitive=PrimitiveType.TRIANGLE_STRIP,
            index_size_bytes=index_size,
        )
    kind = archetype % 3
    if kind == 0:
        subdiv = max(1, int(math.sqrt(tris / 12.0)))
        scale = (0.6 + 0.8 * rng.random()) * size
        return box_mesh(
            name, (scale, scale * 1.4, scale), subdivisions=subdiv,
            index_size_bytes=index_size,
        )
    if kind == 1:
        segments = max(4, int(math.sqrt(tris / 2.5)))
        rings = max(2, tris // (2 * segments) - 1)
        return cylinder_mesh(
            name,
            radius=(0.35 + 0.3 * rng.random()) * size,
            height=(1.2 + 1.2 * rng.random()) * size,
            segments=segments,
            rings=rings,
            index_size_bytes=index_size,
        )
    cells = max(2, int(math.sqrt(tris / 2.0)))
    return grid_mesh(
        name, cells, cells, 2.2 * size, 2.2 * size, index_size_bytes=index_size,
        height_fn=lambda x, z: 0.15 * size * np.sin(3 * x) * np.cos(3 * z),
    )


def build_corridor_scene(
    prefix: str,
    params: EngineParams,
    seed: int,
    index_size: int,
    with_shadow_volumes: bool,
) -> Scene:
    """Rooms along -Z with props/characters; optional per-room shadow setup."""
    rng = np.random.default_rng(seed)
    scene = Scene(room_length=params.room_size[2], rooms=params.rooms)
    width, height, length = params.room_size

    room = room_mesh(
        f"{prefix}.room",
        (width, height, length),
        subdivisions=max(1, int(math.sqrt(params.room_tris / 12.0))),
        index_size_bytes=index_size,
    )
    scene.meshes[room.name] = room

    def build_pool(primitive: PrimitiveType, count: int, tag: str) -> list[Mesh]:
        meshes = []
        for i in range(count):
            tris = max(12, int(params.object_tris * (0.5 + rng.random())))
            mesh = _prop_mesh(
                f"{prefix}.{tag}{i}", i, tris, rng, primitive, index_size,
                size=params.prop_size,
            )
            meshes.append(mesh)
            scene.meshes[mesh.name] = mesh
        return meshes

    pool = build_pool(PrimitiveType.TRIANGLE_LIST, 7, "prop")
    strip_pool = (
        build_pool(PrimitiveType.TRIANGLE_STRIP, 2, "strip")
        if params.strip_object_fraction > 0
        else []
    )
    fan_pool = (
        build_pool(PrimitiveType.TRIANGLE_FAN, 2, "fan")
        if params.fan_object_fraction > 0
        else []
    )
    characters = []
    for i in range(3):
        mesh = character_mesh(
            f"{prefix}.char{i}",
            seed=seed + 100 + i,
            radius=0.45 * params.prop_size,
            height=1.8 * params.prop_size,
            segments=max(4, int(math.sqrt(params.character_tris / 2.2))),
            rings=max(4, int(math.sqrt(params.character_tris / 2.2))),
            index_size_bytes=index_size,
        )
        characters.append(mesh)
        scene.meshes[mesh.name] = mesh

    # Structural set dressing shared across rooms: aisle-spanning arches
    # and floor-to-ceiling pillars.  They stack along the camera axis, which
    # is what gives indoor game frames their depth complexity, and in the
    # stencil path they are the large cross-aisle shadow casters.
    arch_mesh = pillar_mesh = None
    if params.arches_per_room > 0:
        span = min(width * 0.7, 2.2 + 1.8 * params.prop_size + 4.5)
        arch_mesh = box_mesh(
            f"{prefix}.arch",
            (span, 0.7, 1.3),
            subdivisions=max(1, int(math.sqrt(params.object_tris / 12.0))),
            index_size_bytes=index_size,
        )
        scene.meshes[arch_mesh.name] = arch_mesh
    foliage_mesh = None
    if params.foliage_per_room > 0:
        foliage_mesh = grid_mesh(
            f"{prefix}.foliage",
            max(2, int(math.sqrt(params.object_tris / 4.0))),
            max(2, int(math.sqrt(params.object_tris / 4.0))),
            7.0,
            4.5,
            index_size_bytes=index_size,
        )
        scene.meshes[foliage_mesh.name] = foliage_mesh
    if params.pillars_per_room > 0:
        pillar_mesh = cylinder_mesh(
            f"{prefix}.pillar",
            radius=0.4 * max(1.0, params.prop_size * 0.8),
            height=height * 0.96,
            segments=max(6, int(math.sqrt(params.object_tris / 2.5))),
            rings=3,
            index_size_bytes=index_size,
        )
        scene.meshes[pillar_mesh.name] = pillar_mesh

    # Light-independent extrusion state, built once per caster mesh.
    shadow_casters: dict[str, ShadowCaster] = {}

    for r in range(params.rooms):
        room_z = -(r + 0.5) * length
        light_positions = room_light_positions(params, r)
        center, radius = room.bounding_sphere()
        scene.objects.append(
            SceneObject(
                mesh=room.name,
                model=translate(0.0, height / 2.0, room_z),
                center=center + np.array([0.0, height / 2.0, room_z]),
                radius=radius,
                material=int(rng.integers(0, 4)),
                room=r,
            )
        )
        def add_object(
            mesh: Mesh, model: np.ndarray, caster: bool, tag: str
        ) -> SceneObject:
            center_l, radius_l = mesh.bounding_sphere()
            center_w = model[:3, :3] @ center_l + model[:3, 3]
            obj = SceneObject(
                mesh=mesh.name,
                model=model,
                center=center_w,
                radius=radius_l,
                material=int(rng.integers(0, 8)),
                room=r,
                caster=with_shadow_volumes and caster,
            )
            if obj.caster:
                shadow = shadow_casters.get(mesh.name)
                if shadow is None:
                    shadow = shadow_casters[mesh.name] = ShadowCaster(mesh)
                volume_names: list[str] = []
                for li, light_pos in enumerate(light_positions):
                    light_dir_world = center_w - light_pos
                    norm_w = np.linalg.norm(light_dir_world)
                    if norm_w < 1e-9:
                        light_dir_world = np.array([0.0, -1.0, 0.0])
                        norm_w = 1.0
                    dir_unit = light_dir_world / norm_w
                    extrusion = length * params.volume_extrusion_frac
                    # idTech4 clips volumes to the light bounds; emulate by
                    # stopping shortly below the floor so the bulk of the
                    # volume stays in open air (z-passing, Table IX).
                    if dir_unit[1] < -0.05:
                        floor_travel = (center_w[1] + 0.3) / -dir_unit[1]
                        extrusion = min(extrusion, floor_travel)
                    light_dir_local = model[:3, :3].T @ light_dir_world
                    volume = shadow.extrude(
                        light_dir_local,
                        extrusion=extrusion,
                        name=f"{mesh.name}.vol.r{r}{tag}l{li}",
                    )
                    if volume.index_count >= 3:
                        volume.index_size_bytes = index_size
                        scene.meshes[volume.name] = volume
                        volume_names.append(volume.name)
                    else:
                        volume_names.append("")  # keep light-index alignment
                if any(volume_names):
                    obj.volume_meshes = tuple(volume_names)
                else:
                    obj.caster = False
            scene.objects.append(obj)
            return obj

        # Keep the center aisle clear — the camera path walks it, and props
        # can be ~2 units wide, so clearance is center + margin.
        aisle = min(2.2 + 1.8 * params.prop_size, width / 2 - 1.3)
        placed = 0
        for k in range(params.objects_per_room - 1):
            is_character = placed < params.characters_per_room
            if is_character:
                mesh = characters[int(rng.integers(0, len(characters)))]
            else:
                roll = rng.random()
                if fan_pool and roll < params.fan_object_fraction:
                    mesh = fan_pool[int(rng.integers(0, len(fan_pool)))]
                elif strip_pool and roll < (
                    params.fan_object_fraction + params.strip_object_fraction
                ):
                    mesh = strip_pool[int(rng.integers(0, len(strip_pool)))]
                else:
                    mesh = pool[int(rng.integers(0, len(pool)))]
            side = 1.0 if rng.random() < 0.5 else -1.0
            px = side * float(rng.uniform(aisle, width / 2 - 1.2))
            pz = float(rng.uniform(room_z - length / 2 + 1.5, room_z + length / 2 - 1.5))
            model = translate(px, 0.2, pz) @ rotate_y(float(rng.uniform(0, 2 * math.pi)))
            add_object(
                mesh, model, caster=placed < params.casters_per_room, tag=f"k{k}"
            )
            placed += 1
        for a in range(params.arches_per_room):
            if arch_mesh is None:
                break
            pz = room_z + length * (a + 0.5) / params.arches_per_room - length / 2
            py = float(rng.uniform(height * 0.55, height * 0.8))
            add_object(arch_mesh, translate(0.0, py, pz), caster=True, tag=f"a{a}")
        for pidx in range(params.pillars_per_room):
            if pillar_mesh is None:
                break
            side = 1.0 if pidx % 2 == 0 else -1.0
            pz = room_z + length * (pidx + 0.5) / params.pillars_per_room - length / 2
            px = side * (aisle + 0.5)
            add_object(
                pillar_mesh, translate(px, 0.05, pz), caster=True, tag=f"p{pidx}"
            )
        for fidx in range(params.foliage_per_room):
            if foliage_mesh is None:
                break
            side = 1.0 if fidx % 2 == 0 else -1.0
            pz = room_z + length * (fidx + 0.5) / params.foliage_per_room - length / 2
            # A vertical curtain hanging across the walkway side.
            model = translate(side * aisle * 0.6, 2.6, pz) @ rotate_x(math.pi / 2)
            obj = add_object(foliage_mesh, model, caster=False, tag=f"f{fidx}")
            obj.force_alpha = True
    return scene


def build_terrain_scene(
    prefix: str,
    params: EngineParams,
    seed: int,
    index_size: int,
) -> Scene:
    """Open countryside + castle cluster (the Oblivion Anvil Castle shape)."""
    rng = np.random.default_rng(seed)
    scene = Scene(rooms=1)
    patches = max(4, params.terrain_patches)
    side = int(math.sqrt(patches))
    patch_extent = params.terrain_extent / side
    cells = max(4, int(math.sqrt(params.terrain_patch_tris / 2.0)))

    patch_meshes = []
    for i in range(4):  # 4 patch archetypes, instanced over the grid
        mesh = terrain_mesh(
            f"{prefix}.terrain{i}",
            seed=seed + i,
            size=patch_extent,
            cells=cells,
            primitive=(
                PrimitiveType.TRIANGLE_STRIP
                if params.terrain_strip_patches
                else PrimitiveType.TRIANGLE_LIST
            ),
            index_size_bytes=index_size,
        )
        patch_meshes.append(mesh)
        scene.meshes[mesh.name] = mesh

    for gy in range(side):
        for gx in range(side):
            mesh = patch_meshes[int(rng.integers(0, len(patch_meshes)))]
            px = (gx - side / 2 + 0.5) * patch_extent
            pz = (gy - side / 2 + 0.5) * patch_extent
            center_l, radius_l = mesh.bounding_sphere()
            scene.objects.append(
                SceneObject(
                    mesh=mesh.name,
                    model=translate(px, 0.0, pz),
                    center=center_l + np.array([px, 0.0, pz]),
                    radius=radius_l,
                    material=int(rng.integers(0, 4)),
                    room=0,
                    region=1,
                )
            )

    # Castle cluster near the origin: dense TL props.
    pool = [
        _prop_mesh(
            f"{prefix}.castle{i}",
            i,
            max(12, int(params.object_tris * (0.5 + rng.random()))),
            rng,
            PrimitiveType.TRIANGLE_LIST,
            index_size,
        )
        for i in range(8)
    ]
    for mesh in pool:
        scene.meshes[mesh.name] = mesh
    castle_radius = params.terrain_extent * 0.1
    for k in range(params.objects_per_room * params.rooms):
        mesh = pool[int(rng.integers(0, len(pool)))]
        angle = rng.uniform(0, 2 * math.pi)
        dist = castle_radius * math.sqrt(rng.random())
        px, pz = dist * math.cos(angle), dist * math.sin(angle)
        scale_y = 1.0 + 3.0 * rng.random()
        model = translate(px, 0.0, pz) @ rotate_y(float(rng.uniform(0, 2 * math.pi)))
        model[1, 1] = scale_y
        center_l, radius_l = mesh.bounding_sphere()
        center_w = model[:3, :3] @ center_l + model[:3, 3]
        scene.objects.append(
            SceneObject(
                mesh=mesh.name,
                model=model,
                center=center_w,
                radius=radius_l * max(1.0, scale_y),
                material=int(rng.integers(0, 8)),
                room=0,
                region=0,
            )
        )
    return scene
