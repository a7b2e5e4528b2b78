"""Builders for the shader programs the synthetic game engines use.

Register conventions (shared with :mod:`repro.gpu.pipeline`):

Vertex stage
    inputs   ``v0`` position, ``v1`` uv0, ``v2`` normal, ``v3`` color,
             ``v4`` tangent, ``v5`` uv1
    consts   ``c0..c3`` MVP rows, ``c4`` light direction, ``c5`` light color,
             ``c6`` ambient, ``c7`` misc params, ``c8..c10`` model rows
    outputs  ``o0`` clip position, ``o1`` uv0, ``o2`` lit color, ``o3`` uv1

Fragment stage
    inputs   ``v1`` uv0, ``v2`` interpolated color, ``v3`` uv1
    consts   ``c0`` modulator, ``c1`` ambient, ``c2`` params
             (``c2.x`` = alpha-test threshold), ``c7`` filler operand
    output   ``o0`` color

Real games reach their instruction counts with per-material permutations of
the same building blocks (transform, lighting, texture combines); the
builders here do the same, with an explicit ``total_instructions`` target so
the workload models can be calibrated against the paper's Tables IV and XII.
"""

from __future__ import annotations

from repro.shader.program import ShaderProgram, ShaderStage, assemble

_DEFAULT_VERTEX_CONSTANTS = {
    4: (0.35, 0.85, 0.40, 0.0),  # light direction (normalized-ish)
    5: (1.0, 0.95, 0.85, 1.0),  # light color
    6: (0.25, 0.25, 0.25, 1.0),  # ambient floor
    7: (0.5, 0.9, 1.5, 8.0),  # misc params / filler operand
}

_DEFAULT_FRAGMENT_CONSTANTS = {
    0: (1.0, 1.0, 1.0, 1.0),  # modulator
    1: (0.08, 0.08, 0.10, 1.0),  # ambient term
    2: (0.5, 0.0, 0.0, 0.0),  # c2.x alpha-test threshold
    7: (0.6, 0.8, 1.2, 4.0),  # filler operand
}

_TRANSFORM_BLOCK = """
DP4 o0.x, v0, c0
DP4 o0.y, v0, c1
DP4 o0.z, v0, c2
DP4 o0.w, v0, c3
"""

_LIGHTING_BLOCK = """
DP3 r1.x, v2, c8
DP3 r1.y, v2, c9
DP3 r1.z, v2, c10
DP3 r2, r1, c4
MAX r2, r2, c6
MUL o2, r2, c5
"""


def build_vertex_program(
    name: str,
    total_instructions: int,
    lit: bool = True,
    uv_sets: int = 1,
) -> ShaderProgram:
    """Build a vertex program of exactly ``total_instructions`` instructions.

    The program always performs the real MVP transform (so the simulator's
    geometry stage is exact) and copies ``uv_sets`` texture coordinate sets;
    when ``lit`` it evaluates a directional diffuse light into ``o2``.  Any
    remaining budget is spent on a MAD chain standing in for the
    skinning/fog/tangent work real engine shaders do.  No output reads that
    chain: it counts toward Tables IV/XII but is dead, so the interpreter
    never executes it.
    """
    if uv_sets not in (1, 2):
        raise ValueError("uv_sets must be 1 or 2")
    lines = [_TRANSFORM_BLOCK.strip()]
    lines.append("MOV o1, v1")
    if uv_sets == 2:
        lines.append("MOV o3, v5")
    if lit:
        lines.append(_LIGHTING_BLOCK.strip())
    else:
        lines.append("MOV o2, v3")
    body = "\n".join(lines)
    fixed = sum(1 for line in body.splitlines() if line.strip())
    filler = total_instructions - fixed
    if filler < 0:
        raise ValueError(
            f"{name}: total_instructions={total_instructions} below the "
            f"{fixed}-instruction fixed structure"
        )
    body += "\n" + _filler_chain(filler)
    return assemble(
        body,
        name=name,
        stage=ShaderStage.VERTEX,
        constants=_DEFAULT_VERTEX_CONSTANTS,
    )


def build_fragment_program(
    name: str,
    texture_count: int,
    total_instructions: int,
    alpha_test: bool = False,
    uv_sets: int = 1,
    emissive: bool = False,
) -> ShaderProgram:
    """Build a fragment program with ``texture_count`` TEX instructions and
    exactly ``total_instructions`` instructions in total.

    Structure: sample each bound texture, modulate the diffuse sample by the
    interpolated vertex color, accumulate further samples additively, pad
    with the calibration MAD chain (counted, never executed: see
    :func:`_filler_chain`), optionally alpha-test via KIL (the ATTILA
    idiom), and write ``o0``.
    """
    if texture_count < 0:
        raise ValueError("texture_count must be >= 0")

    def build_lines(modulate: bool) -> list[str]:
        lines: list[str] = []
        second_uv = "v3" if uv_sets == 2 else "v1"
        for unit in range(texture_count):
            coord = "v1" if unit == 0 else second_uv
            lines.append(f"TEX r{unit}, {coord}, s{unit}")
        if texture_count > 0:
            if modulate:
                lines.append("MUL r0, r0, v2")
            for unit in range(1, texture_count):
                if emissive:
                    lines.append(f"ADD r0, r0, r{unit}")
                else:
                    lines.append(f"LRP r0, c7.xxxx, r{unit}, r0")
        else:
            lines.append("MOV r0, v2")
        if alpha_test:
            lines.append("ADD r5, r0.wwww, -c2.xxxx")
            lines.append("KIL r5")
        return lines

    # Prefer modulating by the interpolated vertex color; drop it when the
    # instruction budget is too lean (pure multitexture combiners).
    lines = build_lines(modulate=True)
    if total_instructions < len(lines) + 1:
        lines = build_lines(modulate=False)
    fixed = len(lines) + 1  # +1 for the final output MOV
    filler = total_instructions - fixed
    if filler < 0:
        raise ValueError(
            f"{name}: total_instructions={total_instructions} below the "
            f"{fixed}-instruction fixed structure"
        )
    lines.append(_filler_chain(filler))
    lines.append("MOV o0, r0")
    return assemble(
        "\n".join(lines),
        name=name,
        stage=ShaderStage.FRAGMENT,
        constants=_DEFAULT_FRAGMENT_CONSTANTS,
    )


def depth_only_fragment(name: str = "depth_only") -> ShaderProgram:
    """Fragment program for depth/stencil-only passes (color writes masked)."""
    return assemble(
        "MOV o0, c1",
        name=name,
        stage=ShaderStage.FRAGMENT,
        constants=_DEFAULT_FRAGMENT_CONSTANTS,
    )


def fixed_function_vertex(name: str = "fixed_function") -> ShaderProgram:
    """The program ATTILA's driver synthesizes for fixed-function geometry.

    UT2004 does not use vertex programs; the paper notes the low-level driver
    transparently translates the fixed-function state into an equivalent
    shader, which is how Table IV still reports a count for it.
    """
    return build_vertex_program(name, total_instructions=23, lit=True, uv_sets=2)


def _filler_chain(count: int) -> str:
    """A ``count``-instruction, side-effect-free MAD/FRC chain on r6/r7.

    Stands in for per-material ALU (specular approximation, fog, detail
    blending) so programs reach their calibrated lengths.  The filler counts
    toward Tables IV/XII, but no output, ``KIL`` or texture fetch reads it,
    so it is dead and the interpreter never executes it.
    """
    if count == 0:
        return ""
    lines = ["MOV r6, c7"]
    ops = ("MAD r6, r6, c7.yyyy, c7.xxxx", "FRC r7, r6", "MAD r6, r7, c7.zzzz, r6")
    for i in range(count - 1):
        lines.append(ops[i % len(ops)])
    return "\n".join(lines[:count])
