"""Vectorized shader interpreter.

Executes a :class:`~repro.shader.program.ShaderProgram` over N elements
(vertices or fragments) at once.  Register state is a dense ``(N, 4)`` numpy
array per register, which is what lets the simulator shade an entire draw
call's vertices or surviving fragments in a handful of numpy operations.

Each interpreter compiles a program once per consumer into a straight-line
plan: registers become list slots, swizzles prebuilt index arrays, and
backward liveness drops every instruction that no requested output, ``KIL``
or texture fetch depends on.  The plan applies the same ufuncs in the same
order to every live value, so results are bit-identical to running every
instruction, and the executed-instruction count stays the static program
length (Tables IV and XII): dead code is counted, not run.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Protocol

import numpy as np

from repro.shader.isa import Instruction, Opcode
from repro.shader.program import ShaderProgram


class SamplerCallback(Protocol):
    """Texture-sampling hook: ``(sampler_unit, coords) -> (N, 4) colors``.

    ``coords`` is the full ``(N, 4)`` source register (units use ``.xy``; TXP
    receives the projective ``.w`` too).  The GPU texture stage implements
    this protocol; tests can pass simple lambdas.
    """

    def __call__(self, unit: int, coords: np.ndarray) -> np.ndarray: ...


class ShaderExecutionError(RuntimeError):
    """Raised when a program reads a register that was never written."""


class ShaderInterpreter:
    """Executes shader programs over vectors of elements.

    Compiled plans are cached on the instance, one per program, requested
    outputs and set of supplied input and constant registers.
    """

    def __init__(self, sampler: SamplerCallback | None = None):
        self._sampler = sampler
        self._plans: dict[tuple, _Plan] = {}

    def run(
        self,
        program: ShaderProgram,
        inputs: dict[int, np.ndarray],
        count: int | None = None,
        constants: dict[int, tuple[float, float, float, float]] | None = None,
        outputs: tuple[int, ...] | None = None,
    ) -> "ShaderResult":
        """Execute ``program`` over all elements.

        ``inputs`` maps attribute/varying register indices (bank ``v``) to
        ``(N, 4)`` or ``(N, k<=4)`` arrays (missing components default to
        ``(0, 0, 0, 1)`` padding as in OpenGL).  ``constants`` supplies or
        overrides constant registers at draw time (e.g. the MVP matrix rows).
        ``outputs`` names the output registers the caller reads (default:
        every output the program writes); an instruction that none of them,
        no ``KIL`` and no texture fetch depends on is counted but not run.
        A read of an unwritten register raises before anything runs.
        """
        n = count
        for arr in inputs.values():
            n = arr.shape[0] if n is None else n
            if arr.shape[0] != n:
                raise ValueError("all input arrays must share leading dimension")
        if n is None:
            raise ValueError("cannot infer element count: pass count=")

        key = (
            id(program),
            outputs,
            tuple(inputs),
            tuple(constants) if constants else (),
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = _compile(
                program, outputs, inputs, constants, self._sampler is not None
            )
            self._plans[key] = plan

        regs: list[np.ndarray | None] = [None] * plan.slot_count
        for slot, idx in plan.inputs:
            regs[slot] = _pad_to_vec4(np.asarray(inputs[idx], dtype=np.float64), n)
        if plan.constants:
            # One broadcast for all the constants the plan reads.  Each row
            # is a read-only (n, 4) view with zero row stride, the layout
            # broadcasting a single constant gives.
            block = np.empty((len(plan.constants), 4))
            for row, (_, idx) in enumerate(plan.constants):
                block[row] = (
                    constants[idx]
                    if constants and idx in constants
                    else program.constants[idx]
                )
            rows = np.broadcast_to(block[:, None, :], (block.shape[0], n, 4))
            for row, (slot, _) in enumerate(plan.constants):
                regs[slot] = rows[row]

        kill_mask = np.zeros(n, dtype=bool)
        texture_requests = 0
        for kind, arg, sources, dest, mask in plan.steps:
            args = [_fetch(regs, source) for source in sources]
            if kind == _ALU:
                _store(regs, dest, mask, arg(*args), n)
            elif kind == _COLUMN:
                # DP3/DP4 into one component: that column of the dot product.
                a, b = args
                if arg == 3:
                    a, b = a[:, :3], b[:, :3]
                _owned(regs, dest, n)[:, mask] = (a * b).sum(axis=1)
            elif kind == _KIL:
                kill_mask |= (args[0] < 0.0).any(axis=1)
            else:
                coords = args[0]
                if kind == _TXP:
                    w = coords[:, 3:4]
                    safe_w = np.where(w == 0.0, 1.0, w)
                    coords = coords / safe_w
                value = np.asarray(self._sampler(arg, coords), dtype=np.float64)
                if value.shape != (n, 4):
                    raise ShaderExecutionError(
                        f"sampler returned shape {value.shape}, wanted {(n, 4)}"
                    )
                texture_requests += n
                _store(regs, dest, mask, value, n)

        return ShaderResult(
            outputs={idx: regs[slot] for idx, slot in plan.outputs},
            kill_mask=kill_mask,
            instructions_executed=program.instruction_count * n,
            texture_requests=texture_requests,
        )


# Plan step kinds.  A step is ``(kind, arg, sources, dest, mask)``: ``arg`` is
# the ALU callable, the dot-product width (_COLUMN) or the sampler unit
# (_TEX/_TXP); ``sources`` are ``(slot, swizzle, negate)`` reads; ``mask`` is
# None for a full write, a component for a one-component write, else an
# index array of the written components.
_ALU, _COLUMN, _TEX, _TXP, _KIL = range(5)

_XYZW = (0, 1, 2, 3)


class _Plan(NamedTuple):
    """One program compiled for one consumer: its live instructions only.

    ``inputs``/``constants`` are the ``(slot, register)`` loads the steps
    read; ``outputs`` the ``(register, slot)`` pairs of the requested
    outputs the program writes.  ``program`` pins the keying ``id``.
    """

    program: ShaderProgram
    slot_count: int
    inputs: list[tuple[int, int]]
    constants: list[tuple[int, int]]
    steps: list[tuple]
    outputs: tuple[tuple[int, int], ...]


def _compile(
    program: ShaderProgram,
    outputs: tuple[int, ...] | None,
    inputs: dict[int, np.ndarray],
    constants: dict[int, tuple] | None,
    sampled: bool,
) -> _Plan:
    """Prune ``program`` to what ``outputs`` need and resolve it to slots."""
    if outputs is None:
        outputs = tuple(
            sorted(
                {
                    inst.dest.index
                    for inst in program.instructions
                    if inst.dest is not None and inst.dest.bank == "o"
                }
            )
        )

    # Backward liveness, per register.  KIL and texture fetches always run:
    # they drive the kill mask, texture_requests and the texture caches.
    live = {("o", idx) for idx in outputs}
    kept: list[Instruction] = []
    for inst in reversed(program.instructions):
        dest = None if inst.dest is None else (inst.dest.bank, inst.dest.index)
        opcode = inst.opcode
        if not (opcode.is_kill or opcode.is_texture or dest in live):
            continue
        if dest is not None and set(inst.dest.swizzle) == set(_XYZW):
            live.discard(dest)
        live.update((src.bank, src.index) for src in inst.sources)
        kept.append(inst)
    kept.reverse()

    defined = {("v", idx) for idx in inputs}
    defined.update(("c", idx) for idx in program.constants)
    defined.update(("c", idx) for idx in constants or ())
    slots: dict[tuple[str, int], int] = {}
    loads: dict[str, list[tuple[int, int]]] = {"v": [], "c": []}
    steps = []
    for inst in kept:
        opcode = inst.opcode
        if opcode.is_texture and not sampled:
            raise ShaderExecutionError(
                f"program {program.name!r} samples textures but no "
                "sampler callback was provided"
            )
        sources = []
        for src in inst.sources:
            key = (src.bank, src.index)
            if key not in defined:
                raise ShaderExecutionError(
                    f"read of unwritten register {src.bank}{src.index}"
                )
            if key not in slots:
                slots[key] = len(slots)
                if src.bank in loads:
                    loads[src.bank].append((slots[key], src.index))
            sources.append((slots[key], _swizzle_index(src.swizzle), src.negate))
        if opcode.is_kill:
            steps.append((_KIL, None, sources, None, None))
            continue
        key = (inst.dest.bank, inst.dest.index)
        defined.add(key)
        dest = slots.setdefault(key, len(slots))
        components = sorted(set(inst.dest.swizzle))
        if inst.dest.swizzle == _XYZW:
            mask = None
        elif len(components) == 1:
            mask = components[0]
        else:
            mask = np.array(components, dtype=np.intp)
        if opcode.is_texture:
            kind = _TXP if opcode is Opcode.TXP else _TEX
            steps.append((kind, inst.sampler, sources, dest, mask))
        elif opcode in (Opcode.DP3, Opcode.DP4) and len(components) == 1:
            width = 3 if opcode is Opcode.DP3 else 4
            steps.append((_COLUMN, width, sources, dest, mask))
        else:
            steps.append((_ALU, _ALU_OPS[opcode], sources, dest, mask))

    written = tuple(
        (idx, slots[("o", idx)]) for idx in outputs if ("o", idx) in defined
    )
    return _Plan(program, len(slots), loads["v"], loads["c"], steps, written)


def _swizzle_index(swizzle: tuple[int, ...]) -> np.ndarray | None:
    """Source swizzle as a 4-entry index array; None for the identity."""
    if swizzle == _XYZW:
        return None
    swz = list(swizzle)
    while len(swz) < 4:
        swz.append(swz[-1])  # replicate last component, ARB-style
    return np.array(swz, dtype=np.intp)


def _fetch(regs: list, source: tuple) -> np.ndarray:
    slot, swizzle, negate = source
    value = regs[slot]
    if swizzle is None:
        if negate:
            return -value
        # Identity swizzle: skip the fancy-index copy.  The view is
        # read-only, and a full-mask _store of a plain MOV copies it
        # instead of aliasing the source register.
        view = value.view()
        view.flags.writeable = False
        return view
    value = value[:, swizzle]
    return -value if negate else value


def _store(regs: list, slot: int, mask, value: np.ndarray, n: int) -> None:
    if mask is None:
        # Registers own their data, so a later masked write can update one
        # in place without touching another register.
        regs[slot] = value.copy() if value.base is not None else value
        return
    # ARB semantics: the result is computed 4-wide and the mask selects
    # which destination components are updated from the same lane.
    _owned(regs, slot, n)[:, mask] = value[:, mask]


def _owned(regs: list, slot: int, n: int) -> np.ndarray:
    """The register at ``slot`` for a masked write (zeros if unwritten)."""
    target = regs[slot]
    if target is None:
        target = regs[slot] = np.zeros((n, 4))
    return target


class ShaderResult:
    """Output registers plus the execution statistics the tracer consumes."""

    def __init__(
        self,
        outputs: dict[int, np.ndarray],
        kill_mask: np.ndarray,
        instructions_executed: int,
        texture_requests: int,
    ):
        self.outputs = outputs
        self.kill_mask = kill_mask
        self.instructions_executed = instructions_executed
        self.texture_requests = texture_requests

    def output(self, index: int) -> np.ndarray:
        if index not in self.outputs:
            raise ShaderExecutionError(f"program never wrote output o{index}")
        return self.outputs[index]


def _pad_to_vec4(arr: np.ndarray, n: int) -> np.ndarray:
    if arr.ndim == 1:
        arr = arr[:, None]
    k = arr.shape[1]
    if k == 4:
        return arr
    out = np.zeros((n, 4), dtype=np.float64)
    out[:, 3] = 1.0
    out[:, :k] = arr
    return out


def _dp(a: np.ndarray, b: np.ndarray, comps: int) -> np.ndarray:
    s = (a[:, :comps] * b[:, :comps]).sum(axis=1, keepdims=True)
    return np.repeat(s, 4, axis=1)


def _safe_rcp(a: np.ndarray) -> np.ndarray:
    x = a[:, :1]
    return np.repeat(np.where(x == 0.0, np.inf, 1.0 / np.where(x == 0.0, 1.0, x)), 4, axis=1)


def _safe_rsq(a: np.ndarray) -> np.ndarray:
    x = np.abs(a[:, :1])
    return np.repeat(np.where(x == 0.0, np.inf, 1.0 / np.sqrt(np.where(x == 0.0, 1.0, x))), 4, axis=1)


def _nrm(a: np.ndarray) -> np.ndarray:
    norm = np.sqrt((a[:, :3] ** 2).sum(axis=1, keepdims=True))
    norm = np.where(norm == 0.0, 1.0, norm)
    out = a.copy()
    out[:, :3] = a[:, :3] / norm
    return out


def _xpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    out[:, 3] = 1.0
    return out


_ALU_OPS: dict[Opcode, Callable[..., np.ndarray]] = {
    Opcode.MOV: lambda a: a,
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.MAD: lambda a, b, c: a * b + c,
    Opcode.DP3: lambda a, b: _dp(a, b, 3),
    Opcode.DP4: lambda a, b: _dp(a, b, 4),
    Opcode.RCP: _safe_rcp,
    Opcode.RSQ: _safe_rsq,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.SLT: lambda a, b: (a < b).astype(np.float64),
    Opcode.SGE: lambda a, b: (a >= b).astype(np.float64),
    Opcode.FRC: lambda a: a - np.floor(a),
    Opcode.LRP: lambda a, b, c: a * b + (1.0 - a) * c,
    Opcode.CMP: lambda a, b, c: np.where(a < 0.0, b, c),
    Opcode.XPD: _xpd,
    Opcode.LG2: lambda a: np.log2(np.maximum(np.abs(a), 1e-30)),
    Opcode.EX2: lambda a: np.exp2(np.clip(a, -126, 126)),
    Opcode.POW: lambda a, b: np.power(
        np.maximum(np.abs(a[:, :1]), 1e-30), b[:, :1]
    ).repeat(4, axis=1),
    Opcode.NRM: _nrm,
}
