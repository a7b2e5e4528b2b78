"""Tests for the shader ISA: operands, instructions, assembler."""

import pickle

import pytest

from repro.shader.isa import Instruction, Opcode, Operand
from repro.shader.program import assemble, ShaderStage


class TestOperand:
    def test_parse_plain(self):
        op = Operand.parse("r3")
        assert op.bank == "r" and op.index == 3
        assert op.swizzle == (0, 1, 2, 3) and not op.negate

    def test_parse_negated_swizzled(self):
        op = Operand.parse("-c4.xyzx")
        assert op.negate and op.bank == "c" and op.index == 4
        assert op.swizzle == (0, 1, 2, 0)

    def test_parse_color_components(self):
        assert Operand.parse("r0.rgba").swizzle == (0, 1, 2, 3)
        assert Operand.parse("r0.a").swizzle == (3,)

    def test_parse_rejects_garbage(self):
        for bad in ("q0", "r", "r0.q", "rx", ""):
            with pytest.raises(ValueError):
                Operand.parse(bad)

    def test_roundtrip_str(self):
        for text in ("r0", "-c4.xyzx", "o1.xy", "v2.w"):
            assert str(Operand.parse(text)) == text


class TestInstruction:
    def test_source_count_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, Operand.parse("r0"), (Operand.parse("r1"),))

    def test_texture_requires_sampler(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.TEX, Operand.parse("r0"), (Operand.parse("v1"),))

    def test_kill_takes_no_dest(self):
        with pytest.raises(ValueError):
            Instruction(
                Opcode.KIL, Operand.parse("r0"), (Operand.parse("r1"),)
            )

    def test_dest_bank_restricted(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.MOV, Operand.parse("c0"), (Operand.parse("r0"),))

    def test_is_texture_flags(self):
        assert Opcode.TEX.is_texture and Opcode.TXP.is_texture
        assert not Opcode.MAD.is_texture
        assert Opcode.KIL.is_kill


class TestAssembler:
    def test_counts(self):
        prog = assemble(
            """
            # comment line
            DP4 o0.x, v0, c0
            TEX r0, v1, s0
            MUL r0, r0, v2
            KIL -r0.a
            MOV o0, r0
            """
        )
        assert prog.instruction_count == 5
        assert prog.texture_instruction_count == 1
        assert prog.alu_instruction_count == 3
        assert prog.uses_kill
        assert prog.samplers_used == (0,)

    def test_counts_are_not_pickled(self):
        prog = assemble("TEX r0, v1, s0\nKIL -r0.a\nMOV o0, r0")
        fresh = pickle.dumps(prog)
        assert (prog.texture_instruction_count, prog.alu_instruction_count,
                prog.uses_kill) == (1, 1, True)
        assert pickle.dumps(prog) == fresh
        assert pickle.loads(fresh).uses_kill

    def test_alu_tex_ratio(self):
        prog = assemble("TEX r0, v1, s0\nMUL r0, r0, r0\nADD r0, r0, r0\nMOV o0, r0")
        assert prog.alu_to_texture_ratio == pytest.approx(3.0)

    def test_ratio_infinite_without_tex(self):
        prog = assemble("MOV o0, v1")
        assert prog.alu_to_texture_ratio == float("inf")

    def test_unknown_opcode_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            assemble("MOV o0, v1\nFROB r0, r1")

    def test_missing_sampler_rejected(self):
        with pytest.raises(ValueError):
            assemble("TEX r0, v1")

    def test_stage_and_name_preserved(self):
        prog = assemble("MOV o0, v1", name="p", stage=ShaderStage.VERTEX)
        assert prog.name == "p" and prog.stage is ShaderStage.VERTEX

    def test_source_text_reassembles(self):
        source = "DP4 o0.x, v0, c0\nTEX r0, v1, s2\nKIL -r0.w\nMOV o0, r0"
        prog = assemble(source)
        again = assemble(prog.source_text())
        assert again.instruction_count == prog.instruction_count
        assert again.source_text() == prog.source_text()
