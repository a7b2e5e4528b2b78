"""Tests for the API layer: commands, state machine, trace I/O, tracer."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.api.commands import (
    BindProgram,
    BindTexture,
    Clear,
    Draw,
    GraphicsApi,
    SetState,
    SetUniform,
    UploadResource,
    is_state_call,
)
from repro.api.state import RenderState, StateMachine, StencilSide
from repro.api.trace import Frame, Trace, TraceMeta, load_trace, save_trace
from repro.api.tracer import ApiTracer
from repro.geometry.primitives import PrimitiveType
from repro.shader.library import build_fragment_program, build_vertex_program


class TestCommands:
    def test_draw_validation(self):
        with pytest.raises(ValueError):
            Draw("m", PrimitiveType.TRIANGLE_LIST, 0)
        with pytest.raises(ValueError):
            Draw("m", PrimitiveType.TRIANGLE_LIST, 3, first_index=-1)

    def test_bind_program_stage_validation(self):
        with pytest.raises(ValueError):
            BindProgram("geometry", "p")

    def test_upload_validation(self):
        with pytest.raises(ValueError):
            UploadResource("r", "shader", 10)

    def test_is_state_call(self):
        assert is_state_call(SetState("blend", "add"))
        assert is_state_call(Clear())
        assert not is_state_call(Draw("m", PrimitiveType.TRIANGLE_LIST, 3))

    def test_uniform_matrix_flattens(self):
        u = SetUniform.matrix("mvp", np.eye(4))
        assert len(u.value) == 16
        assert u.value[0] == 1.0 and u.value[1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_uniform_matrix_is_bitwise_the_per_element_conversion(self, dtype):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]
        if dtype is np.int64:
            values = np.array([0, -1, 7, 2**31, -(2**40)] + list(range(11)))
        else:
            values = np.array(special + [1 / 3, -3e38, 1e-45, 0.1] + [2.0] * 5)
            values = values.astype(dtype)
        matrix = values.reshape(4, 4)
        old = tuple(float(x) for x in np.asarray(matrix).reshape(-1))
        new = SetUniform.matrix("m", matrix).value
        assert all(type(x) is float for x in new)
        assert struct.pack("16d", *new) == struct.pack("16d", *old)


class TestStateMachine:
    def test_defaults(self):
        state = RenderState()
        assert state.depth_func == "less" and state.blend == "replace"
        assert state.color_mask and state.cull == "back"

    def test_invalid_enum_values(self):
        with pytest.raises(ValueError):
            RenderState(depth_func="sometimes")
        with pytest.raises(ValueError):
            RenderState(blend="multiply_sub")
        with pytest.raises(ValueError):
            StencilSide(zfail="explode")

    def test_apply_set_state(self):
        machine = StateMachine()
        machine.apply(SetState("blend", "add"))
        assert machine.state.blend == "add"

    def test_apply_unknown_state_rejected(self):
        machine = StateMachine()
        with pytest.raises(ValueError):
            machine.apply(SetState("wireframe", True))

    def test_rejected_value_leaves_state_unchanged(self):
        machine = StateMachine()
        before = machine.state
        for _ in range(2):
            with pytest.raises(ValueError):
                machine.apply(SetState("depth_func", "sometimes"))
            assert machine.state is before
        # A method name is not a state field either.
        with pytest.raises(ValueError):
            machine.apply(SetState("texture", "a"))

    def test_apply_builds_the_states_replace_builds(self):
        machine = StateMachine()
        expected = RenderState()
        for call, change in (
            (SetState("depth_func", "equal"), {"depth_func": "equal"}),
            (BindProgram("fragment", "fp"), {"fragment_program": "fp"}),
            (BindTexture(1, "t"), {"textures": ((1, "t"),)}),
            (
                SetState("stencil_front", ("keep", "keep", "incr_wrap")),
                {"stencil_front": StencilSide("keep", "keep", "incr_wrap")},
            ),
        ):
            machine.apply(call)
            expected = dataclasses.replace(expected, **change)
            assert machine.state == expected
            assert hash(machine.state) == hash(expected)
            assert vars(machine.state) == vars(expected)

    def test_stencil_side_from_tuple(self):
        machine = StateMachine()
        machine.apply(SetState("stencil_back", ("keep", "incr_wrap", "keep")))
        assert machine.state.stencil_back.zfail == "incr_wrap"

    def test_texture_bindings_tracked(self):
        machine = StateMachine()
        machine.apply(BindTexture(0, "a"))
        machine.apply(BindTexture(2, "b"))
        assert machine.state.texture(0) == "a"
        assert machine.state.texture(2) == "b"
        machine.apply(BindTexture(0, None))
        assert machine.state.texture(0) is None

    def test_uniform_matrix_roundtrip(self):
        machine = StateMachine()
        m = np.arange(16, dtype=float).reshape(4, 4)
        machine.apply(SetUniform.matrix("mvp", m))
        assert np.allclose(machine.uniform_matrix("mvp"), m)
        assert machine.uniform_matrix("missing") is None

    def test_draw_does_not_change_state(self):
        machine = StateMachine()
        before = machine.state
        machine.apply(Draw("m", PrimitiveType.TRIANGLE_LIST, 3))
        assert machine.state is before

    def test_apply_rejects_unknown_call_type(self):
        with pytest.raises(TypeError):
            StateMachine().apply(object())


def small_trace() -> Trace:
    calls = [
        Clear(),
        BindProgram("vertex", "vp"),
        BindProgram("fragment", "fp"),
        BindTexture(0, "tex"),
        SetState("blend", "add"),
        SetState("stencil_front", StencilSide(zfail="decr_wrap")),
        SetUniform("mvp", tuple(float(i) for i in range(16))),
        UploadResource("mesh", "vertex", 1024),
        Draw("mesh", PrimitiveType.TRIANGLE_LIST, 30),
        Draw("mesh", PrimitiveType.TRIANGLE_STRIP, 12, first_index=3),
    ]
    meta = TraceMeta("test", GraphicsApi.OPENGL, 1, index_size_bytes=2)
    return Trace(meta, [Frame(0, calls)])


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(small_trace(), path)
        loaded = load_trace(path)
        assert loaded.meta.name == "test"
        assert loaded.meta.api is GraphicsApi.OPENGL
        original = list(small_trace().frames())[0].calls
        restored = list(loaded.frames())[0].calls
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert type(a) is type(b)
        draw = restored[-1]
        assert draw.primitive is PrimitiveType.TRIANGLE_STRIP
        assert draw.first_index == 3

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame": 0, "calls": []}\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_materialize(self):
        counter = {"n": 0}

        def gen():
            counter["n"] += 1
            yield Frame(0, [])

        trace = Trace(TraceMeta("t", GraphicsApi.OPENGL, 1), gen)
        materialized = trace.materialize()
        list(materialized.frames())
        list(materialized.frames())
        assert counter["n"] == 1  # generator consumed exactly once


class TestTracer:
    def make_programs(self):
        return {
            "vp": build_vertex_program("vp", 20),
            "fp": build_fragment_program("fp", 2, 10),
        }

    def test_frame_stats(self):
        tracer = ApiTracer(self.make_programs())
        stats = tracer.trace_stats(small_trace())
        frame = stats.frames[0]
        assert frame.batches == 2
        assert frame.indices == 42
        assert frame.index_bytes == 84
        assert frame.state_calls == 8
        assert frame.upload_bytes == 1024
        assert frame.primitives[PrimitiveType.TRIANGLE_LIST] == 10
        assert frame.primitives[PrimitiveType.TRIANGLE_STRIP] == 10

    def test_vertex_weighting(self):
        tracer = ApiTracer(self.make_programs())
        stats = tracer.trace_stats(small_trace())
        assert stats.avg_vertex_instructions == pytest.approx(20.0)

    def test_fragment_per_batch(self):
        tracer = ApiTracer(self.make_programs())
        stats = tracer.trace_stats(small_trace())
        assert stats.avg_fragment_instructions == pytest.approx(10.0)
        assert stats.avg_texture_instructions == pytest.approx(2.0)
        assert stats.alu_to_texture_ratio == pytest.approx(4.0)

    def test_primitive_share_sums_to_one(self):
        tracer = ApiTracer(self.make_programs())
        share = tracer.trace_stats(small_trace()).primitive_share
        assert sum(share.values()) == pytest.approx(1.0)

    def test_series_and_unknown_metric(self):
        tracer = ApiTracer(self.make_programs())
        stats = tracer.trace_stats(small_trace())
        assert stats.series("batches") == [2.0]
        with pytest.raises(KeyError):
            stats.series("frobs")

    def test_index_bandwidth(self):
        tracer = ApiTracer(self.make_programs())
        stats = tracer.trace_stats(small_trace())
        assert stats.index_bandwidth_bytes_per_s(100.0) == pytest.approx(8400.0)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_max_frames_pulls_exactly_that_many_frames(self, k):
        calls = next(small_trace().frames()).calls
        pulled: list[int] = []

        def frames():
            for number in range(5):
                pulled.append(number)
                yield Frame(number, calls)

        lazy = Trace(TraceMeta("lazy", GraphicsApi.OPENGL, 5), frames)
        stats = ApiTracer(self.make_programs()).trace_stats(lazy, max_frames=k)
        assert stats.frame_count == k and pulled == list(range(k))

    def test_unknown_programs_ignored(self):
        tracer = ApiTracer({})  # no registry: shader stats fall to zero
        stats = tracer.trace_stats(small_trace())
        assert stats.avg_vertex_instructions == 0.0
        assert stats.avg_fragment_instructions == 0.0
