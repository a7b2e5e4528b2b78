"""Shader programs and the text assembler."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from enum import Enum

from repro.shader.isa import Instruction, Opcode, Operand


class ShaderStage(Enum):
    VERTEX = "vertex"
    FRAGMENT = "fragment"


@dataclass(frozen=True)
class ShaderProgram:
    """An assembled shader program plus the metadata the tracer reports.

    The paper's Table IV and XII statistics are *executed* instruction counts;
    with no flow control in this ISA they equal the static program length, so
    the program itself carries the characterization metadata.
    """

    name: str
    stage: ShaderStage
    instructions: tuple[Instruction, ...]
    constants: dict[int, tuple[float, float, float, float]] = field(
        default_factory=dict
    )

    @property
    def instruction_count(self) -> int:
        """Total instructions (the paper's 'Instructions' column)."""
        return len(self.instructions)

    # The instruction tuple is frozen, so the counts below are computed on
    # first read; ``__getstate__`` keeps them out of pickles.
    @cached_property
    def texture_instruction_count(self) -> int:
        """Texture-sampling instructions (TEX/TXP/TXB)."""
        return sum(1 for i in self.instructions if i.opcode.is_texture)

    @cached_property
    def alu_instruction_count(self) -> int:
        """Non-texture, non-kill arithmetic instructions."""
        return sum(
            1
            for i in self.instructions
            if not i.opcode.is_texture and not i.opcode.is_kill
        )

    @property
    def alu_to_texture_ratio(self) -> float:
        """ALU instructions per texture instruction (inf when no TEX)."""
        tex = self.texture_instruction_count
        if tex == 0:
            return float("inf")
        return self.alu_instruction_count / tex

    @cached_property
    def uses_kill(self) -> bool:
        """True when the program contains KIL (ATTILA's alpha-test idiom)."""
        return any(i.opcode.is_kill for i in self.instructions)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def samplers_used(self) -> tuple[int, ...]:
        """Sorted distinct sampler units referenced by texture instructions."""
        return tuple(
            sorted(
                {i.sampler for i in self.instructions if i.sampler is not None}
            )
        )

    def source_text(self) -> str:
        """Disassemble back to the text form accepted by :func:`assemble`."""
        return "\n".join(str(i) for i in self.instructions)


def assemble(
    text: str,
    name: str = "anon",
    stage: ShaderStage = ShaderStage.FRAGMENT,
    constants: dict[int, tuple[float, float, float, float]] | None = None,
) -> ShaderProgram:
    """Assemble shader text into a :class:`ShaderProgram`.

    One instruction per line; ``#`` starts a comment; blank lines ignored.

    >>> prog = assemble("DP4 o0.x, v0, c0\\nTEX r0, v1, s0\\nKIL -r0.a")
    >>> prog.instruction_count, prog.texture_instruction_count
    (3, 1)
    """
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip().rstrip(";")
        if not line:
            continue
        try:
            instructions.append(_parse_line(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return ShaderProgram(
        name=name,
        stage=stage,
        instructions=tuple(instructions),
        constants=dict(constants or {}),
    )


def _parse_line(line: str) -> Instruction:
    mnemonic, _, rest = line.partition(" ")
    try:
        opcode = Opcode(mnemonic.upper())
    except ValueError as exc:
        raise ValueError(f"unknown opcode {mnemonic!r}") from exc
    operand_texts = [t.strip() for t in rest.split(",") if t.strip()]

    sampler = None
    if opcode.is_texture:
        if not operand_texts or not operand_texts[-1].startswith("s"):
            raise ValueError(f"{opcode.value} needs a trailing sampler operand")
        sampler_text = operand_texts.pop()
        if not sampler_text[1:].isdigit():
            raise ValueError(f"bad sampler {sampler_text!r}")
        sampler = int(sampler_text[1:])

    operands = [Operand.parse(t) for t in operand_texts]
    if opcode.is_kill:
        dest, sources = None, tuple(operands)
    else:
        if not operands:
            raise ValueError(f"{opcode.value} needs a destination")
        dest, sources = operands[0], tuple(operands[1:])
    return Instruction(opcode=opcode, dest=dest, sources=sources, sampler=sampler)
