"""The synthetic game engine: turns a workload spec into API call streams.

Two render paths cover the paper's workloads:

* ``forward`` — single-geometry-pass engines (Unreal 2.5, Starbreeze,
  Lithtech/FEAR, Source, Splinter Cell): opaque geometry sorted by material,
  optional second additive pass (lightmaps / extra lights), alpha-tested
  cutouts, then translucent additive surfaces.
* ``stencil_shadow`` — idTech4 (Doom3, Quake4): depth prepass with color
  writes masked, then per light a two-sided-stencil z-fail shadow volume
  pass (HZ disabled) followed by an additive interaction pass with the depth
  test set to EQUAL and the stencil test gating shadowed pixels.
* ``terrain`` — Gamebryo/Oblivion: castle cluster as triangle lists plus
  open terrain drawn as triangle strips, with a region switch halfway
  through the timedemo (the paper's two vertex-shader regions).
"""

from __future__ import annotations

import numpy as np

from repro.api.commands import (
    BindProgram,
    BindTexture,
    Clear,
    Draw,
    SetState,
    SetUniform,
    UploadResource,
)
from repro.api.state import StencilSide
from repro.api.trace import Frame, Trace, TraceMeta
from repro.shader.library import build_fragment_program, build_vertex_program
from repro.shader.program import ShaderProgram
from repro.workloads.camera import CorridorPath, TerrainPath
from repro.workloads.scenes import (
    Scene,
    SceneObject,
    build_corridor_scene,
    build_terrain_scene,
    room_light_positions,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.textures import build_texture_set

_MATERIAL_SLOTS = 40


class Material:
    """Resolved material: fragment program + textures + transparency flags."""

    def __init__(
        self,
        index: int,
        fragment_program: str | None,
        vertex_program: str,
        textures: tuple[str, ...],
        alpha_test: bool = False,
        blend_add: bool = False,
    ):
        self.index = index
        self.fragment_program = fragment_program
        self.vertex_program = vertex_program
        self.textures = textures
        self.alpha_test = alpha_test
        self.blend_add = blend_add

    @property
    def sort_key(self) -> tuple:
        # Opaque first, then alpha-tested, then blended — the order engines
        # submit in; within a class, batch by program/texture.
        transparency = (1 if self.alpha_test else 0) + (2 if self.blend_add else 0)
        return (transparency, self.fragment_program or "", self.textures)


class GameEngine:
    """Builds the scene/resources for a spec and emits per-frame call lists."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.params = spec.params
        self.prefix = spec.slug
        self._rng = np.random.default_rng(spec.seed)

        shadows = self.params.render_path == "stencil_shadow"
        if self.params.render_path == "terrain":
            self.scene: Scene = build_terrain_scene(
                self.prefix, self.params, spec.seed, spec.index_size_bytes
            )
        else:
            self.scene = build_corridor_scene(
                self.prefix,
                self.params,
                spec.seed,
                spec.index_size_bytes,
                with_shadow_volumes=shadows,
            )
        if self.params.uv_scale != 1.0:
            for mesh in self.scene.meshes.values():
                mesh.uvs = mesh.uvs * self.params.uv_scale
        self.textures = build_texture_set(
            self.prefix,
            spec.seed + 7,
            self.params.texture_count,
            size=self.params.texture_size,
            palette=self.params.palette,
        )
        self.programs: dict[str, ShaderProgram] = {}
        self._vertex_names: list[list[str]] = []  # [region][variant]
        self._build_programs()
        self.materials = self._build_materials()
        self._region2_materials = (
            self._build_materials(region=1)
            if self.params.render_path == "terrain"
            else self.materials
        )
        self._current_region = 0

    # -- resources -----------------------------------------------------------
    def _build_programs(self) -> None:
        regions = (
            [self.params.vertex_variants]
            if not isinstance(self.params.vertex_variants[0][0], tuple)
            else list(self.params.vertex_variants)
        )
        for region, variants in enumerate(regions):
            names = []
            for i, (length, _weight) in enumerate(variants):
                name = f"{self.prefix}.v{region}_{i}"
                self.programs[name] = build_vertex_program(
                    name, int(length), lit=True, uv_sets=1
                )
                names.append(name)
            self._vertex_names.append(names)
        for i, (length, tex, _w, alpha) in enumerate(self.params.fragment_variants):
            name = f"{self.prefix}.f{i}"
            self.programs[name] = build_fragment_program(
                name,
                texture_count=int(tex),
                total_instructions=int(length),
                alpha_test=bool(alpha),
            )

    def _allocate(self, weights: list[float], slots: int) -> list[int]:
        """Largest-remainder proportional allocation of variant -> slot count."""
        raw = [w * slots for w in weights]
        counts = [int(r) for r in raw]
        remainder = slots - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for i in range(remainder):
            counts[order[i % len(order)]] += 1
        return counts

    def _build_materials(self, region: int = 0) -> list[Material]:
        params = self.params
        rng = np.random.default_rng(self.spec.seed + 31 + region)
        frag_weights = [v[2] for v in params.fragment_variants]
        frag_alloc = self._allocate(frag_weights, _MATERIAL_SLOTS)
        vertex_variants = (
            params.vertex_variants
            if not isinstance(params.vertex_variants[0][0], tuple)
            else params.vertex_variants[min(region, len(params.vertex_variants) - 1)]
        )
        vert_weights = [v[1] for v in vertex_variants]
        vert_alloc = self._allocate(vert_weights, _MATERIAL_SLOTS)
        vert_names = self._vertex_names[min(region, len(self._vertex_names) - 1)]

        frag_ids: list[int] = []
        for variant, count in enumerate(frag_alloc):
            frag_ids.extend([variant] * count)
        vert_ids: list[int] = []
        for variant, count in enumerate(vert_alloc):
            vert_ids.extend([variant] * count)
        rng.shuffle(vert_ids)

        alpha_slots = int(round(params.alpha_fraction * _MATERIAL_SLOTS))
        blend_slots = int(round(params.blend_fraction * _MATERIAL_SLOTS))
        material_names = [t.name for t in self.textures if ".mat" in t.name]
        cutout_names = [t.name for t in self.textures if ".cut" in t.name]

        materials = []
        for slot in range(_MATERIAL_SLOTS):
            variant = frag_ids[slot]
            _length, tex_count, _w, has_alpha = params.fragment_variants[variant]
            is_alpha = has_alpha and slot < alpha_slots
            is_blend = not is_alpha and slot >= _MATERIAL_SLOTS - blend_slots
            pool = cutout_names if is_alpha and cutout_names else material_names
            textures = tuple(
                pool[int(rng.integers(0, len(pool)))] for _ in range(int(tex_count))
            )
            materials.append(
                Material(
                    index=slot,
                    fragment_program=f"{self.prefix}.f{variant}",
                    vertex_program=vert_names[vert_ids[slot]],
                    textures=textures,
                    alpha_test=is_alpha,
                    blend_add=is_blend,
                )
            )
        # Alpha-tested variants must actually carry KIL: force alpha slots to
        # an alpha-capable variant if the chosen one is not.
        alpha_variants = [
            i for i, v in enumerate(params.fragment_variants) if v[3]
        ]
        if alpha_variants:
            for slot in range(alpha_slots):
                mat = materials[slot]
                if not self.programs[mat.fragment_program].uses_kill:
                    mat.fragment_program = f"{self.prefix}.f{alpha_variants[0]}"
                    mat.alpha_test = True
                    pool = cutout_names or material_names
                    count = self.programs[mat.fragment_program].texture_instruction_count
                    mat.textures = tuple(
                        pool[i % len(pool)] for i in range(count)
                    )
        return materials

    def material_for(self, obj: SceneObject) -> Material:
        """Material for an object, honoring the current demo region.

        The Oblivion timedemo's second half switches to the countryside
        shader set (the paper's two Table-IV regions) — a property of where
        the *camera* is, so the engine tracks it per frame.
        """
        table = (
            self._region2_materials if self._current_region == 1 else self.materials
        )
        if obj.force_alpha:
            for mat in table:
                if mat.alpha_test:
                    return mat
        return table[(obj.material * 5 + obj.room) % len(table)]

    # -- traces ---------------------------------------------------------------
    def trace(
        self,
        frames: int | None = None,
        width: int = 1024,
        height: int = 768,
    ) -> Trace:
        frame_count = frames if frames is not None else self.spec.frames
        meta = TraceMeta(
            name=self.spec.name,
            api=self.spec.api,
            frame_count=frame_count,
            width=width,
            height=height,
            index_size_bytes=self.spec.index_size_bytes,
            engine=self.spec.engine,
            aniso_level=self.spec.aniso_level or 0,
            uses_shaders=self.spec.uses_shaders,
        )

        def frames_fn():
            path = self._build_path(frame_count, width / height)
            for f in range(frame_count):
                yield Frame(f, self.frame_calls(f, frame_count, path))

        return Trace(meta, frames_fn)

    def _build_path(self, frames: int, aspect: float):
        if self.params.render_path == "terrain":
            return TerrainPath(
                extent=self.params.terrain_extent, frames=frames, aspect=aspect
            )
        return CorridorPath(
            rooms=self.params.rooms,
            room_length=self.params.room_size[2],
            frames=frames,
            aspect=aspect,
        )

    def frame_calls(self, frame: int, total_frames: int, path) -> list:
        calls: list = [Clear()]
        calls.extend(self._upload_calls(frame, total_frames))
        if self.params.render_path == "terrain":
            self._current_region = path.region(frame)
        shot = path.shot(frame)
        visible = self._visible_objects(frame, path, shot)
        if not visible:
            return calls
        if self.params.render_path == "stencil_shadow":
            calls.extend(self._stencil_shadow_frame(frame, path, shot, visible))
        else:
            calls.extend(self._forward_frame(frame, shot, visible, path))
        return calls

    # -- visibility ------------------------------------------------------------
    def _visible_objects(self, frame: int, path, shot) -> list[SceneObject]:
        if self.params.render_path == "terrain":
            view_dist = self.params.terrain_extent * 0.42
            fwd = -shot.view[2, :3]
            out = []
            for obj in self.scene.objects:
                to_c = obj.center - shot.position
                dist = np.linalg.norm(to_c)
                if dist - obj.radius > view_dist:
                    continue
                if dist > obj.radius and (to_c / dist) @ fwd < -0.35:
                    continue
                out.append(obj)
            return out
        room = path.room_at(frame)
        lo = max(0, room - self.params.visible_rooms_behind)
        hi = min(self.scene.rooms - 1, room + self.params.visible_rooms_ahead)
        return self.scene.objects_in_rooms(set(range(lo, hi + 1)))

    # -- call emission ----------------------------------------------------------
    def _upload_calls(self, frame: int, total_frames: int) -> list:
        params = self.params
        calls: list = []
        if frame == 0:
            for mesh in self.scene.meshes.values():
                calls.append(
                    UploadResource(
                        mesh.name,
                        "vertex",
                        mesh.vertex_count * mesh.vertex_size_bytes,
                    )
                )
                calls.append(
                    UploadResource(
                        mesh.name + ".ib",
                        "index",
                        mesh.index_count * mesh.index_size_bytes,
                    )
                )
            for tex in self.textures:
                for level in range(tex.levels):
                    blocks = max(1, (tex.width >> level) // 4) * max(
                        1, (tex.height >> level) // 4
                    )
                    calls.append(
                        UploadResource(
                            f"{tex.name}.mip{level}",
                            "texture",
                            blocks * tex.format.block_bytes,
                        )
                    )
            calls.extend(
                SetUniform("startup_param", (float(i), 0.0, 0.0, 0.0))
                for i in range(params.startup_calls)
            )
            return calls
        for point in params.transition_points:
            if frame == int(point * total_frames):
                for i in range(params.transition_calls):
                    tex = self.textures[i % len(self.textures)]
                    calls.append(
                        UploadResource(
                            f"{tex.name}.reload{i}", "texture", tex.compressed_bytes
                        )
                    )
        return calls

    def _bind_material(self, mat: Material, prev: Material | None) -> list:
        if prev is not None and prev.fragment_program == mat.fragment_program and (
            prev.textures == mat.textures
            and prev.vertex_program == mat.vertex_program
        ):
            return []
        calls: list = [
            BindProgram("vertex", mat.vertex_program),
            BindProgram("fragment", mat.fragment_program),
        ]
        calls.extend(
            BindTexture(unit, name) for unit, name in enumerate(mat.textures)
        )
        calls.extend(
            SetUniform("material_param", (float(mat.index), float(k), 0.0, 0.0))
            for k in range(self.params.extra_state_calls_per_material)
        )
        return calls

    def _draw_object(self, obj: SceneObject, shot, calls: list) -> None:
        mesh = self.scene.meshes[obj.mesh]
        mvp = shot.view_projection @ obj.model
        calls.append(SetUniform.matrix("mvp", mvp))
        calls.append(SetUniform.matrix("model", obj.model))
        calls.append(Draw(mesh.name, mesh.primitive, mesh.index_count))

    def _forward_frame(self, frame: int, shot, visible: list[SceneObject], path) -> list:
        calls: list = [
            SetState("depth_test", True),
            SetState("depth_func", "less"),
            SetState("depth_write", True),
            SetState("blend", "replace"),
            SetState("color_mask", True),
            SetState("stencil_test", False),
            SetState("cull", "back"),
            SetState("hierarchical_z", True),
            SetUniform("light_dir", (0.35, -0.8, -0.45, 0.0)),
            SetUniform("light_color", (1.0, 0.96, 0.9, 1.0)),
            SetUniform("ambient", (0.3, 0.3, 0.32, 1.0)),
        ]
        ordered = sorted(
            visible, key=lambda o: self.material_for(o).sort_key + (o.mesh,)
        )
        prev: Material | None = None
        mode = "opaque"
        second_pass: list[SceneObject] = []
        for obj in ordered:
            mat = self.material_for(obj)
            if mat.blend_add and mode != "blend":
                mode = "blend"
                calls.append(SetState("depth_write", False))
                calls.append(SetState("blend", "add"))
            calls.extend(self._bind_material(mat, prev))
            prev = mat
            self._draw_object(obj, shot, calls)
            mesh_salt = sum(obj.mesh.encode()) % 13  # deterministic across runs
            roll = ((obj.material * 31 + obj.room * 17 + mesh_salt) % 97) / 97.0
            if (
                not mat.alpha_test
                and not mat.blend_add
                and roll < self.params.two_pass_fraction
            ):
                second_pass.append(obj)
        if second_pass:
            # Lightmap/detail/fog passes: the surface is re-sent with the
            # depth test at EQUAL, so only the visible fragments blend.
            calls.append(SetState("depth_func", "equal"))
            calls.append(SetState("depth_write", False))
            for extra in range(max(1, self.params.extra_passes)):
                calls.append(
                    SetState("blend", "modulate" if extra == 0 else "add")
                )
                for obj in second_pass:
                    mat = self.material_for(obj)
                    calls.extend(self._bind_material(mat, prev))
                    prev = mat
                    self._draw_object(obj, shot, calls)
        return calls

    def _stencil_shadow_frame(
        self, frame: int, path, shot, visible: list[SceneObject]
    ) -> list:
        params = self.params
        calls: list = [
            # Depth prepass: fill z, color writes masked, no fragment program.
            SetState("color_mask", False),
            SetState("depth_test", True),
            SetState("depth_func", "less"),
            SetState("depth_write", True),
            SetState("blend", "replace"),
            SetState("stencil_test", False),
            SetState("cull", "back"),
            SetState("hierarchical_z", True),
            BindProgram("fragment", None),
        ]
        prev_vp: str | None = None
        for obj in sorted(visible, key=lambda o: o.mesh):
            vp = self.material_for(obj).vertex_program
            if vp != prev_vp:
                calls.append(BindProgram("vertex", vp))
                prev_vp = vp
            self._draw_object(obj, shot, calls)

        room = path.room_at(frame)
        visible_rooms = sorted({o.room for o in visible})
        light_rooms = [r for r in visible_rooms if r >= room][: params.lit_rooms]
        if len(light_rooms) < params.lit_rooms:
            light_rooms = visible_rooms[: params.lit_rooms]
        light_radius = params.light_radius_frac * params.room_size[2]

        lights: list[tuple[int, int, np.ndarray]] = []  # (room, index, position)
        for light_room in light_rooms:
            for li, pos in enumerate(room_light_positions(params, light_room)):
                lights.append((light_room, li, pos))

        for light_room, light_index, light_pos in lights:
            room_objects = [
                o
                for o in visible
                if o.room == light_room
                and np.linalg.norm(o.center - light_pos) - o.radius < light_radius
            ]
            casters = [
                o
                for o in room_objects
                if o.caster
                and light_index < len(o.volume_meshes)
                and o.volume_meshes[light_index]
            ]
            if casters:
                calls.extend(
                    [
                        SetState("depth_write", False),
                        SetState("depth_func", "less"),
                        SetState("stencil_test", True),
                        SetState("stencil_func", "always"),
                        SetState("stencil_front", StencilSide(zfail="decr_wrap")),
                        SetState("stencil_back", StencilSide(zfail="incr_wrap")),
                        SetState("cull", "none"),
                        SetState("hierarchical_z", False),
                        SetState("color_mask", False),
                        BindProgram("fragment", None),
                    ]
                )
                for obj in casters:
                    vp = self.material_for(obj).vertex_program
                    if vp != prev_vp:
                        calls.append(BindProgram("vertex", vp))
                        prev_vp = vp
                    mesh = self.scene.meshes[obj.volume_meshes[light_index]]
                    mvp = shot.view_projection @ obj.model
                    calls.append(SetUniform.matrix("mvp", mvp))
                    calls.append(SetUniform.matrix("model", obj.model))
                    calls.append(Draw(mesh.name, mesh.primitive, mesh.index_count))
            # Interaction pass: additive light on non-shadowed pixels.
            calls.extend(
                [
                    SetState("stencil_test", True),
                    SetState("stencil_func", "equal"),
                    SetState("stencil_ref", 0),
                    SetState("stencil_front", StencilSide()),
                    SetState("stencil_back", StencilSide()),
                    SetState("cull", "back"),
                    SetState("depth_func", "equal"),
                    SetState("depth_write", False),
                    SetState("color_mask", True),
                    SetState("blend", "add"),
                    SetState("hierarchical_z", True),
                    SetUniform("light_color", (0.9, 0.85, 0.75, 1.0)),
                    SetUniform("ambient", (0.02, 0.02, 0.02, 1.0)),
                ]
            )
            prev_mat: Material | None = None
            for obj in sorted(room_objects, key=lambda o: self.material_for(o).sort_key):
                mat = self.material_for(obj)
                light_dir = obj.center - light_pos
                norm = np.linalg.norm(light_dir)
                light_dir = light_dir / norm if norm > 0 else np.array([0, -1.0, 0])
                calls.extend(self._bind_material(mat, prev_mat))
                prev_mat = mat
                prev_vp = mat.vertex_program
                calls.append(
                    SetUniform(
                        "light_dir",
                        tuple(float(x) for x in -light_dir) + (0.0,),
                    )
                )
                self._draw_object(obj, shot, calls)
            calls.append(Clear(color=False, depth=False, stencil=True))
        return calls
