"""Wrappers around the public functions of every layer, for the traced pass.

:func:`install` replaces each target with a thin wrapper that records a
span in a :class:`~perfbench.spans.SpanRecorder`, everywhere the target is
bound: on its class, in its defining module, in every ``repro`` module that
imported it by name, and in the exhibit registries.  :func:`Hooks.remove`
puts every original back, so no wrapper survives into a timed run.

A target that no longer exists (renamed, fused into a native kernel,
deleted) is reported as a missing hook and its layer's metrics are left
out; it never raises.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys

from perfbench.spans import SpanRecorder

#: ``(layer, "module:qualified.name")`` for every wrapped call.
TARGETS: tuple[tuple[str, str], ...] = (
    # gpu: one layer per pipeline stage.
    ("gpu.vertex", "repro.gpu.vertex:VertexStage.process"),
    ("gpu.geometry", "repro.gpu.pipeline:assemble_triangles"),
    ("gpu.geometry", "repro.gpu.pipeline:clip_and_cull"),
    ("gpu.raster", "repro.gpu.pipeline:rasterize_draw"),
    ("gpu.hz", "repro.gpu.framebuffer:Framebuffer.hz_cull_mask"),
    ("gpu.hz", "repro.gpu.framebuffer:Framebuffer.hz_minmax_equal_cull_mask"),
    ("gpu.hz", "repro.gpu.framebuffer:Framebuffer.hz_stencil_cull_mask"),
    ("gpu.hz", "repro.gpu.zstencil:ZStencilStage.update_hz_quads"),
    ("gpu.zstencil", "repro.gpu.zstencil:ZStencilStage.test_write"),
    ("gpu.zstencil", "repro.gpu.zstencil:ZStencilStage.account_stream"),
    ("gpu.alu", "repro.shader.interpreter:ShaderInterpreter.run"),
    ("gpu.texture", "repro.gpu.texture:TextureUnit.__call__"),
    ("gpu.color", "repro.gpu.color:ColorStage.process_groups"),
    ("gpu.color", "repro.gpu.color:ColorStage.flush"),
    ("gpu.frame", "repro.gpu.pipeline:GpuSimulator.run_frame"),
    # workloads and api
    ("workloads.build", "repro.workloads.generator:GameWorkload.__init__"),
    ("workloads.trace", "repro.api.trace:Trace.materialize"),
    ("api.trace_stats", "repro.api.tracer:ApiTracer.trace_stats"),
    # farm
    ("farm.store.load", "repro.farm.store:ArtifactStore.load"),
    ("farm.store.save", "repro.farm.store:ArtifactStore.save"),
    ("farm.checkpoint", "repro.farm.store:ArtifactStore.save_checkpoint"),
    ("farm.checkpoint", "repro.farm.store:ArtifactStore.load_checkpoint"),
    ("farm.trace_store", "repro.farm.store:ArtifactStore.save_trace"),
    ("farm.trace_store", "repro.farm.store:ArtifactStore.load_trace"),
    ("farm.merge", "repro.farm.merge:merge_results"),
    ("farm.validate", "repro.farm.invariants:validate_result"),
    ("farm.key", "repro.farm.job:JobSpec.key"),
    ("farm.job", "repro.farm.checkpoint:job_trace"),
    ("farm.job", "repro.farm.checkpoint:run_checkpointed"),
    ("farm.job", "repro.farm.checkpoint:run_api_job"),
    # experiments: the exhibit registries are expanded at install time.
    ("experiments.render", "repro.experiments.scorecard:experiments_markdown"),
    ("experiments.render", "repro.experiments.tables:ALL_TABLES[*]"),
    ("experiments.render", "repro.experiments.figures:ALL_FIGURES[*]"),
    # serve
    ("serve.journal", "repro.serve.journal:JobJournal.append"),
    ("serve.decode", "repro.serve.protocol:decode_submission"),
    ("serve.summary", "repro.serve.protocol:summarize_result"),
)

#: The worker-side unit entry point of the farm's process pool.  Wrapping
#: it lets a forked worker hand its spans over after every unit; without
#: it worker spans would be lost, so the traced pass runs the farm serially.
WORKER_ENTRY = ("farm.worker", "repro.farm.executor:_pool_entry")

#: Calls that belong to the enclosing layer when nested inside it: the
#: vertex stage runs vertex programs through the same interpreter.
NESTED_IN = {"gpu.alu": "gpu.vertex"}


def _wrap(fn, layer: str, rec: SpanRecorder, flush: bool = False):
    inside = NESTED_IN.get(layer)
    from repro.farm.job import JobSpec

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if inside is not None and any(s[0] == inside for s in rec.stack()):
            return fn(*args, **kwargs)
        key = None
        for arg in args[:2]:
            if isinstance(arg, JobSpec):
                key = rec.job_key(arg)
                break
            if isinstance(arg, dict) and isinstance(arg.get("job"), str):
                key = arg["job"]
                break
        span = rec.enter(layer, key)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(span)
            if flush and rec.is_worker():
                rec.flush()

    return wrapper


class Hooks:
    """The installed wrappers; :meth:`remove` restores every original."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.missing: list[str] = []
        self.layers: set[str] = set()
        self.worker_spans = False
        self._undo: list[tuple[object, str, object, bool]] = []

    def _set(self, owner, name, value, item: bool) -> None:
        if item:
            self._undo.append((owner, name, owner[name], True))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name], False))
            setattr(owner, name, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every module-level binding of ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper, item=False)
                elif attr.startswith("ALL_") and isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._set(value, key, wrapper, item=True)

    def hook(self, layer: str, target: str, flush: bool = False) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            if path.endswith("[*]"):
                registry = getattr(module, path[:-3])
                for fn in list(registry.values()):
                    self._rebind(fn, _wrap(fn, layer, self.rec))
                self.layers.add(layer)
                return True
            owner = module
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        wrapper = _wrap(original, layer, self.rec, flush)
        if isinstance(owner, type):
            if name not in owner.__dict__:
                self.missing.append(target)
                return False
            self._set(owner, name, wrapper, item=False)
        else:
            self._rebind(original, wrapper)
        self.layers.add(layer)
        return True

    def remove(self) -> None:
        while self._undo:
            owner, name, value, item = self._undo.pop()
            if item:
                owner[name] = value
            else:
                setattr(owner, name, value)


def install(rec: SpanRecorder) -> Hooks:
    """Wrap every target, and the pool's unit entry for forked workers."""
    from repro.farm.job import JobSpec

    hooks = Hooks(rec)
    rec.key_of = JobSpec.key
    for layer, target in TARGETS:
        hooks.hook(layer, target)
    if hooks.hook(*WORKER_ENTRY, flush=True):
        hooks.worker_spans = True
        os.register_at_fork(after_in_child=rec.after_fork)
    return hooks
