"""Tests for the vectorized shader interpreter."""

import numpy as np
import pytest

from repro.shader.interpreter import ShaderExecutionError, ShaderInterpreter
from repro.shader.program import assemble


def run(src, inputs, constants=None, sampler=None, count=None):
    interp = ShaderInterpreter(sampler=sampler)
    return interp.run(assemble(src), inputs, constants=constants, count=count)


class TestAluOps:
    def test_mov_add_mul(self):
        res = run(
            "ADD r0, v0, v1\nMUL o0, r0, v1",
            {0: np.array([[1.0, 2, 3, 4]]), 1: np.array([[2.0, 2, 2, 2]])},
        )
        assert np.allclose(res.output(0), [[6, 8, 10, 12]])

    def test_mad(self):
        res = run(
            "MAD o0, v0, v1, v2",
            {
                0: np.array([[2.0, 2, 2, 2]]),
                1: np.array([[3.0, 3, 3, 3]]),
                2: np.array([[1.0, 1, 1, 1]]),
            },
        )
        assert np.allclose(res.output(0), 7.0)

    def test_dp3_dp4(self):
        a = np.array([[1.0, 2, 3, 4]])
        res3 = run("DP3 o0, v0, v0", {0: a})
        res4 = run("DP4 o0, v0, v0", {0: a})
        assert np.allclose(res3.output(0), 14.0)
        assert np.allclose(res4.output(0), 30.0)

    def test_rcp_rsq(self):
        res = run("RCP o0, v0", {0: np.array([[4.0, 9, 9, 9]])})
        assert np.allclose(res.output(0), 0.25)
        res = run("RSQ o0, v0", {0: np.array([[4.0, 9, 9, 9]])})
        assert np.allclose(res.output(0), 0.5)

    def test_rcp_zero_is_inf(self):
        res = run("RCP o0, v0", {0: np.array([[0.0, 1, 1, 1]])})
        assert np.isinf(res.output(0)).all()

    def test_min_max_slt_sge(self):
        a = {0: np.array([[1.0, 5, 1, 5]]), 1: np.array([[3.0, 3, 3, 3]])}
        assert np.allclose(run("MIN o0, v0, v1", a).output(0), [[1, 3, 1, 3]])
        assert np.allclose(run("MAX o0, v0, v1", a).output(0), [[3, 5, 3, 5]])
        assert np.allclose(run("SLT o0, v0, v1", a).output(0), [[1, 0, 1, 0]])
        assert np.allclose(run("SGE o0, v0, v1", a).output(0), [[0, 1, 0, 1]])

    def test_frc_lrp(self):
        res = run("FRC o0, v0", {0: np.array([[1.25, -0.25, 2.5, 0]])})
        assert np.allclose(res.output(0), [[0.25, 0.75, 0.5, 0]])
        res = run(
            "LRP o0, v0, v1, v2",
            {
                0: np.full((1, 4), 0.25),
                1: np.full((1, 4), 8.0),
                2: np.full((1, 4), 4.0),
            },
        )
        assert np.allclose(res.output(0), 5.0)

    def test_xpd(self):
        res = run(
            "XPD o0, v0, v1",
            {0: np.array([[1.0, 0, 0, 0]]), 1: np.array([[0.0, 1, 0, 0]])},
        )
        assert np.allclose(res.output(0)[0, :3], [0, 0, 1])

    def test_nrm(self):
        res = run("NRM o0, v0", {0: np.array([[3.0, 4, 0, 9]])})
        assert np.allclose(res.output(0)[0, :3], [0.6, 0.8, 0.0])

    def test_cmp(self):
        res = run(
            "CMP o0, v0, v1, v2",
            {
                0: np.array([[-1.0, 1, -1, 1]]),
                1: np.full((1, 4), 10.0),
                2: np.full((1, 4), 20.0),
            },
        )
        assert np.allclose(res.output(0), [[10, 20, 10, 20]])

    def test_lg2_ex2_roundtrip(self):
        res = run("LG2 r0, v0\nEX2 o0, r0", {0: np.full((1, 4), 8.0)})
        assert np.allclose(res.output(0), 8.0)


class TestSemantics:
    def test_swizzle_and_negate(self):
        res = run("MOV o0, -v0.wzyx", {0: np.array([[1.0, 2, 3, 4]])})
        assert np.allclose(res.output(0), [[-4, -3, -2, -1]])

    def test_write_mask_updates_lane_only(self):
        res = run(
            "MOV r0, v0\nMOV r0.x, v1\nMOV o0, r0",
            {0: np.zeros((1, 4)), 1: np.full((1, 4), 7.0)},
        )
        assert np.allclose(res.output(0), [[7, 0, 0, 0]])

    def test_scalar_swizzle_replicates(self):
        res = run("MOV o0, v0.w", {0: np.array([[1.0, 2, 3, 4]])})
        assert np.allclose(res.output(0), 4.0)

    def test_short_inputs_padded_opengl_style(self):
        res = run("MOV o0, v0", {0: np.array([[1.0, 2.0]])})
        assert np.allclose(res.output(0), [[1, 2, 0, 1]])

    def test_constants_at_runtime_override(self):
        prog = assemble("MOV o0, c0", constants={0: (1.0, 1, 1, 1)})
        interp = ShaderInterpreter()
        res = interp.run(prog, {}, count=2, constants={0: (5.0, 5, 5, 5)})
        assert np.allclose(res.output(0), 5.0)

    def test_unwritten_register_raises(self):
        with pytest.raises(ShaderExecutionError):
            run("MOV o0, r5", {0: np.zeros((1, 4))})

    def test_dead_code_is_counted_not_run(self):
        # r1 feeds no output, so its read of the unwritten r5 never runs.
        res = run("MOV r1, r5\nMOV o0, v0", {0: np.ones((3, 4))})
        assert np.allclose(res.output(0), 1.0)
        assert res.instructions_executed == 6

    def test_missing_output_raises(self):
        res = run("MOV r0, v0", {0: np.zeros((1, 4))})
        with pytest.raises(ShaderExecutionError):
            res.output(0)

    def test_instruction_count_scales_with_elements(self):
        res = run("MOV r0, v0\nMOV o0, r0", {0: np.zeros((10, 4))})
        assert res.instructions_executed == 20


class TestKillAndTexture:
    def test_kill_any_negative_component(self):
        res = run("KIL v0\nMOV o0, v0", {0: np.array([[1.0, 1, 1, 1], [1, -0.1, 1, 1]])})
        assert list(res.kill_mask) == [False, True]

    def test_kill_accumulates(self):
        res = run(
            "KIL v0\nKIL v1\nMOV o0, v0",
            {
                0: np.array([[-1.0, 0, 0, 0], [1, 1, 1, 1]]),
                1: np.array([[1.0, 1, 1, 1], [-1, 0, 0, 0]]),
            },
        )
        assert list(res.kill_mask) == [True, True]

    def test_texture_callback_invoked(self):
        seen = {}

        def sampler(unit, coords):
            seen["unit"] = unit
            seen["coords"] = coords.copy()
            return np.full((coords.shape[0], 4), 0.5)

        res = run(
            "TEX o0, v1, s3",
            {1: np.array([[0.25, 0.75, 0, 1]])},
            sampler=sampler,
        )
        assert seen["unit"] == 3
        assert np.allclose(res.output(0), 0.5)
        assert res.texture_requests == 1

    def test_txp_divides_by_w(self):
        def sampler(unit, coords):
            assert np.allclose(coords[0, :2], [0.5, 1.0])
            return np.zeros((coords.shape[0], 4))

        run("TXP o0, v1, s0", {1: np.array([[1.0, 2.0, 0, 2.0]])}, sampler=sampler)

    def test_texture_without_sampler_raises(self):
        with pytest.raises(ShaderExecutionError):
            run("TEX o0, v1, s0", {1: np.zeros((1, 4))})

    def test_malformed_program_fails_before_sampling(self):
        calls = []

        def sampler(unit, coords):
            calls.append(unit)
            return np.zeros((coords.shape[0], 4))

        with pytest.raises(ShaderExecutionError, match="r5"):
            run("TEX r0, v1, s0\nMOV o0, r5", {1: np.zeros((2, 4))}, sampler=sampler)
        assert calls == []  # no texture traffic charged for a rejected program
