"""The compiled, liveness-pruned shader plan against a reference interpreter.

``reference_run`` is the interpreter loop the plan replaced: it executes
every instruction through dict-keyed registers.  For the outputs a caller
requests, the plan must reproduce it bit for bit — outputs, kill mask,
texture requests, executed-instruction count and the ordered sampler calls
(unit and coordinate bytes) — on every program the workloads ship and on
random straight-line programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shader import library
from repro.shader.interpreter import (
    _ALU_OPS,
    ShaderExecutionError,
    ShaderInterpreter,
    _pad_to_vec4,
)
from repro.shader.isa import SOURCE_COUNTS, Opcode
from repro.shader.program import ShaderStage, assemble
from repro.workloads import all_workloads, build_workload

# ---------------------------------------------------------------------------
# Reference: run every instruction, registers in a dict


def reference_run(program, inputs, count=None, constants=None, sampler=None):
    n = count
    for arr in inputs.values():
        n = arr.shape[0] if n is None else n
    regs = {}
    for idx, arr in inputs.items():
        regs[("v", idx)] = _pad_to_vec4(np.asarray(arr, dtype=np.float64), n)
    merged = dict(program.constants)
    merged.update(constants or {})
    for idx, value in merged.items():
        regs[("c", idx)] = np.broadcast_to(np.asarray(value, dtype=np.float64), (n, 4))

    kill_mask = np.zeros(n, dtype=bool)
    texture_requests = 0
    for inst in program.instructions:
        if inst.opcode is Opcode.KIL:
            kill_mask |= (_read(regs, inst.sources[0]) < 0.0).any(axis=1)
            continue
        if inst.opcode.is_texture:
            coords = _read(regs, inst.sources[0])
            if inst.opcode is Opcode.TXP:
                w = coords[:, 3:4]
                coords = coords / np.where(w == 0.0, 1.0, w)
            value = np.asarray(sampler(inst.sampler, coords), dtype=np.float64)
            texture_requests += n
            _write(regs, inst.dest, value)
            continue
        srcs = [_read(regs, s) for s in inst.sources]
        _write(regs, inst.dest, _ALU_OPS[inst.opcode](*srcs))
    outputs = {idx: arr for (bank, idx), arr in regs.items() if bank == "o"}
    return outputs, kill_mask, texture_requests, program.instruction_count * n


def _read(regs, operand):
    key = (operand.bank, operand.index)
    if key not in regs:
        raise ShaderExecutionError(
            f"read of unwritten register {operand.bank}{operand.index}"
        )
    value = regs[key]
    if operand.swizzle == (0, 1, 2, 3):
        if operand.negate:
            return -value
        view = value.view()
        view.flags.writeable = False
        return view
    swz = list(operand.swizzle)
    while len(swz) < 4:
        swz.append(swz[-1])
    value = value[:, swz]
    return -value if operand.negate else value


def _write(regs, operand, value):
    key = (operand.bank, operand.index)
    mask = operand.swizzle
    if mask == (0, 1, 2, 3):
        regs[key] = value.copy() if value.base is not None else value
        return
    if key not in regs:
        regs[key] = np.zeros_like(value)
    target = regs[key]
    if target.base is not None or not target.flags.writeable:
        target = np.array(target)
        regs[key] = target
    for comp in sorted(set(mask)):
        target[:, comp] = value[:, comp]


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


class RecordingSampler:
    """Deterministic texture lookups that remember every call in order."""

    def __init__(self):
        self.calls = []

    def __call__(self, unit, coords):
        self.calls.append((unit, coords.shape, _bits(coords)))
        u, v = coords[:, 0], coords[:, 1]
        shade = np.full(u.shape, unit / 8.0)
        return np.stack([np.sin(u), np.cos(v), u * v, shade], axis=1)


def assert_plan_matches(
    program, inputs, constants, outputs, plan_inputs=None, count=None
):
    """Run the plan for ``outputs`` and the reference; compare bit for bit."""
    ref_sampler, plan_sampler = RecordingSampler(), RecordingSampler()
    with np.errstate(all="ignore"):
        ref_out, ref_kill, ref_tex, ref_count = reference_run(
            program, inputs, count=count, constants=constants, sampler=ref_sampler
        )
        result = ShaderInterpreter(sampler=plan_sampler).run(
            program,
            inputs if plan_inputs is None else plan_inputs,
            count=count,
            constants=constants,
            outputs=outputs,
        )
    wanted = sorted(ref_out) if outputs is None else outputs
    expected = sorted(i for i in wanted if i in ref_out)
    assert sorted(result.outputs) == expected, program.name
    for idx in result.outputs:
        got, want = result.outputs[idx], ref_out[idx]
        where = (program.name, idx)
        assert got.shape == want.shape and got.dtype == want.dtype, where
        assert _bits(got) == _bits(want), where
    assert result.kill_mask.tobytes() == ref_kill.tobytes(), program.name
    assert result.texture_requests == ref_tex, program.name
    assert result.instructions_executed == ref_count, program.name
    assert plan_sampler.calls == ref_sampler.calls, program.name


# ---------------------------------------------------------------------------
# (a) Every shipped program under the pipeline's three consumer sets


@pytest.fixture(scope="module")
def shipped_programs():
    programs = {}
    for spec in all_workloads():
        programs.update(build_workload(spec.name, sim=True).programs)
    for prog in (library.fixed_function_vertex(), library.depth_only_fragment()):
        programs[prog.name] = prog
    return list(programs.values())


def _vertex_inputs(rng, n):
    uv = rng.uniform(-2.0, 2.0, (n, 2))
    return {
        0: rng.normal(size=(n, 3)) * 4.0,
        1: uv,
        2: rng.normal(size=(n, 3)),
        3: rng.uniform(0.0, 1.0, (n, 4)),
        4: np.zeros((n, 3)),
        5: uv,
    }


def _draw_constants(rng):
    mvp = rng.normal(size=(4, 4))
    model = rng.normal(size=(4, 4))
    constants = {i: tuple(mvp[i]) for i in range(4)}
    constants.update({8 + i: tuple(model[i]) for i in range(3)})
    constants[4] = (0.2, 0.9, 0.3, 0.0)
    return constants


@pytest.mark.parametrize(
    "consumer", ["vertex-attributes", "vertex-position", "fragment"]
)
def test_shipped_programs_match_reference(shipped_programs, consumer):
    rng = np.random.default_rng(7)
    stage = ShaderStage.FRAGMENT if consumer == "fragment" else ShaderStage.VERTEX
    programs = [p for p in shipped_programs if p.stage is stage]
    assert len(programs) > 20
    for program in programs:
        n = 37
        if consumer == "fragment":
            v1 = np.zeros((n, 4))
            v1[:, :2] = rng.uniform(-1.0, 2.0, (n, 2))
            v1[:, 3] = 1.0
            inputs = {1: v1, 2: rng.uniform(0.0, 1.0, (n, 4))}
            assert_plan_matches(program, inputs, None, (0,), count=n)
            continue
        inputs = _vertex_inputs(rng, n)
        constants = _draw_constants(rng)
        if consumer == "vertex-attributes":
            assert_plan_matches(program, inputs, constants, (0, 1, 2))
        else:
            assert_plan_matches(
                program, inputs, constants, (0,), plan_inputs={0: inputs[0]}
            )


def test_position_plan_runs_the_transform_only(shipped_programs):
    interp = ShaderInterpreter()
    constants = _draw_constants(np.random.default_rng(1))
    for program in shipped_programs:
        if program.stage is not ShaderStage.VERTEX:
            continue
        interp.run(program, {0: np.ones((3, 3))}, constants=constants, outputs=(0,))
        (plan,) = [p for p in interp._plans.values() if p.program is program]
        assert len(plan.steps) == 4, program.name  # DP4 o0.x .. o0.w


def test_plans_are_cached_per_interpreter():
    program = library.fixed_function_vertex()
    constants = _draw_constants(np.random.default_rng(2))
    interp = ShaderInterpreter()
    interp.run(program, {0: np.ones((4, 3))}, constants=constants, outputs=(0,))
    interp.run(program, {0: np.ones((5, 3))}, constants=constants, outputs=(0,))
    assert len(interp._plans) == 1
    assert ShaderInterpreter()._plans == {}


@pytest.mark.parametrize(
    "text",
    [
        # A full copy then a masked write to the copy leaves the source alone.
        "MOV r0, v0\nMOV r1, r0\nMOV r1.x, v1\nADD o0, r0, r1",
        # All four components written through an out-of-order mask.
        "MOV r0, v1\nMOV r0.wzyx, v0\nMOV o0, r0",
        # One-component dot products, and an output read back.
        "DP4 o0.y, v0, c0\nDP3 o0.w, -v1.zyx, c1\nMOV o1.xz, o0",
        # Projective fetch under a mask feeding a kill and an output.
        "TXP r0.xy, v1, s1\nKIL -r0.y\nMUL o0, r0, v2",
    ],
)
@pytest.mark.parametrize("outputs", [None, (0,), (1,), ()])
def test_edge_programs_match_reference(text, outputs):
    rng = np.random.default_rng(3)
    inputs = {i: rng.normal(size=(5, 4)) for i in range(3)}
    constants = {i: tuple(rng.normal(size=4)) for i in range(2)}
    assert_plan_matches(assemble(text, name=text), inputs, constants, outputs)


# ---------------------------------------------------------------------------
# (b) Random straight-line programs and random output subsets

_ALU_OPCODES = sorted(_ALU_OPS, key=lambda op: op.value)
_TEXTURE_OPCODES = [Opcode.TEX, Opcode.TXP, Opcode.TXB]
_SUPPLIED = ["v0", "v1", "v2", "c0", "c1", "c2", "c3"]
_WRITABLE = ["r0", "r1", "r2", "r3", "o0", "o1", "o2"]


def _swizzle(draw):
    if draw(st.booleans()):
        return ""
    comps = draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=4))
    text = "".join(comps)
    return "" if text == "xyzw" else "." + text


def _mask(draw):
    if draw(st.booleans()):
        return ""
    comps = draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=4, unique=True))
    return "." + "".join(comps)


@st.composite
def straight_line_programs(draw):
    readable = list(_SUPPLIED)  # supplied, or written by an earlier line

    def source():
        neg = "-" if draw(st.booleans()) else ""
        return neg + draw(st.sampled_from(readable)) + _swizzle(draw)

    lines = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["alu"] * 6 + ["tex", "kil"]))
        if kind == "kil":
            lines.append(f"KIL {source()}")
            continue
        dest = draw(st.sampled_from(_WRITABLE))
        if kind == "tex":
            opcode = draw(st.sampled_from(_TEXTURE_OPCODES))
            operands = [source()]
            tail = f", s{draw(st.integers(0, 3))}"
        else:
            opcode = draw(st.sampled_from(_ALU_OPCODES))
            operands = [source() for _ in range(SOURCE_COUNTS[opcode])]
            tail = ""
        operand_text = ", ".join(operands)
        lines.append(f"{opcode.value} {dest}{_mask(draw)}, {operand_text}{tail}")
        if dest not in readable:
            readable.append(dest)
    subsets = st.lists(st.integers(0, 2), unique=True, max_size=3).map(tuple)
    outputs = draw(st.one_of(st.none(), subsets))
    return "\n".join(lines), outputs


@settings(max_examples=300, deadline=None)
@given(straight_line_programs(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_random_programs_match_reference(case, n, seed):
    text, outputs = case
    program = assemble(text, name="random", constants={3: (0.5, -1.0, 0.0, 2.0)})
    rng = np.random.default_rng(seed)

    def values(shape):
        pool = rng.normal(size=shape) * 3.0
        special = rng.choice([0.0, -1.0, 1.0, 0.5], size=shape)
        return np.where(rng.uniform(size=shape) < 0.25, special, pool)

    inputs = {0: values((n, 4)), 1: values((n, 2)), 2: values((n, 3))}
    constants = {i: tuple(values(4)) for i in range(3)}
    assert_plan_matches(program, inputs, constants, outputs)
