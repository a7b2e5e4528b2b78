"""Draw-level content addressing: frame-coherent incremental simulation.

Consecutive timedemo frames are highly similar, and re-running a demo (a
longer budget, another ``--jobs`` width, a warm CI pass) re-simulates call
streams that have not changed at all.  This module extends the farm's
content addressing from whole runs (:meth:`repro.farm.job.JobSpec.key`)
down to individual draws: while a trace replays, a running SHA-256 over
the canonically-encoded call stream yields one key per draw and one per
frame, chained onto

* a **base fingerprint** (workload spec, seed, profile, GPU config, code
  version — :meth:`JobSpec.draw_base_fingerprint`), shared by every shard
  and every demo length of the same workload, and
* the **bound state** at frame entry (render state, uniforms, texture
  bindings — everything the API state machine carries across frames).

A frame whose key is already in the :class:`DrawCache` is *reused*: its
recorded statistics, quad fates, per-client memory traffic, and cache
hit/miss contributions are applied as deltas and its end-of-frame cache
contents installed, instead of re-simulating — turning O(frames × draws)
cost into O(changed draws).  Reuse is bit-identical to full simulation by
construction:

* **Granularity is the frame.**  The z/color/texture cache streams depend
  on every preceding access of the frame, so the first changed draw
  invalidates the rest of its frame; per-draw keys (and the per-draw
  framebuffer-region footprints recorded alongside) localize the delta
  and guard against key collisions, but replay restarts at the frame
  boundary.
* **Only framebuffer-independent frames participate.**  A frame is
  *storable* only if it opens with a full clear (color+depth+stencil
  before any draw) — the same property that makes frame shards
  bit-identical to serial runs — and *reusable* only if the next frame
  in this run opens with one too (or the slice ends), so a freshly
  simulated successor never reads framebuffer state the reused frame
  did not write.
* **Invalidation is structural.**  Any change to the bound state, the
  call stream, the workload spec, the GPU config, or the code version
  lands in the key, so stale entries are simply never found; a record
  whose stored per-draw keys disagree with the current stream (or whose
  seal fails, or whose counter deltas violate conservation) is
  quarantined via the store's never-reuse semantics and the frame
  recomputed.

Persistent entries live under ``<cache_root>/drawcache/<frame_key>.pkl``,
sealed like every other store entry (:func:`repro.farm.store.write_sealed`);
with no store the cache is memory-only (intra-run reuse still applies).
The ``drawcache.{hits,misses,invalidations}`` metric family and
``gpu.frame.reuse`` spans surface reuse behaviour through
:mod:`repro.observe`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib
import pickle
from dataclasses import dataclass, field

from repro.api.commands import Clear, Draw
from repro.api.trace import Frame, Trace, _encode_call
from repro.farm.job import JobSpec, _canonical
from repro.farm.store import ArtifactStore, write_sealed
from repro.gpu.stats import FrameGpuStats, MemClient
from repro.observe import metrics as obs_metrics
from repro.observe import spans as obs_spans

#: Names of the simulator caches whose streams a record carries, matching
#: the ``caches`` dict of :class:`~repro.gpu.pipeline.SimulationResult`.
CACHE_NAMES = ("zstencil", "color", "texture_l0", "texture_l1")


# -- keys ---------------------------------------------------------------
def entry_state_doc(machine) -> dict:
    """Canonical document of everything the state machine carries across
    frames: the bound render state (programs, textures, depth/stencil/
    blend modes) and the uniform values."""
    return {
        "state": _canonical(machine.state),
        "uniforms": {
            name: _canonical(value)
            for name, value in sorted(machine.uniforms.items())
        },
    }


def frame_keys(
    base_key: str, machine, frame: Frame
) -> tuple[str, tuple[str, ...]]:
    """``(frame_key, per-draw keys)`` for ``frame`` entered via ``machine``.

    A running SHA-256 over the canonically-encoded call stream, seeded with
    the base key and the frame-entry bound state.  The digest at each
    ``Draw`` is that draw's key — draw N's key covers the entry state and
    every call up to and including the draw, which is exactly the input
    surface of its simulation within the frame.  The digest after the last
    call is the frame key.  Frame numbers are deliberately excluded: two
    content-identical frames at different timedemo positions (or in shards
    at different ``--jobs`` widths) share keys.
    """
    digest = hashlib.sha256(base_key.encode())
    digest.update(
        json.dumps(entry_state_doc(machine), sort_keys=True).encode()
    )
    draw_keys: list[str] = []
    for call in frame.calls:
        digest.update(json.dumps(_encode_call(call), sort_keys=True).encode())
        if isinstance(call, Draw):
            draw_keys.append(digest.hexdigest()[:24])
    return digest.hexdigest()[:24], tuple(draw_keys)


def opens_with_full_clear(frame: Frame) -> bool:
    """True when the frame resets the whole framebuffer before drawing.

    The first Clear must hit color, depth, and stencil and precede every
    draw — the frame-independence property the shard scheduler relies on
    (see :meth:`repro.gpu.pipeline.GpuSimulator.run_trace`), and the
    precondition for reusing a frame without replaying its framebuffer
    writes.
    """
    for call in frame.calls:
        if isinstance(call, Clear):
            return bool(call.color and call.depth and call.stencil)
        if isinstance(call, Draw):
            return False
    return False


# -- records ------------------------------------------------------------
@dataclass
class FrameRecord:
    """Everything one simulated frame contributed, as reusable deltas.

    ``cache_deltas`` holds per-cache ``(hits, misses, accesses)`` counter
    deltas and ``cache_states`` the end-of-frame cache contents (the
    ``__getstate__`` form), so a reused frame both advances the counters
    and leaves the caches exactly where a fresh simulation would — which
    the shard-merge layer's last-slice cache semantics require.
    ``draw_regions`` records each draw's framebuffer footprint
    ``(x0, y0, x1, y1, quads)`` on the vectorized path (``None`` entries
    for culled-empty or reference-path draws) — the conservative
    region-dependency evidence behind the frame-granularity rule.
    """

    frame_key: str
    draw_keys: tuple[str, ...]
    fstats: FrameGpuStats
    memory_reads: dict[MemClient, int]
    memory_writes: dict[MemClient, int]
    cache_deltas: dict[str, tuple[int, int, int]]
    cache_states: dict[str, dict]
    draw_regions: tuple = ()
    image: "object | None" = None  # np.ndarray when captured with images

    def violations(self) -> list[str]:
        """Conservation checks a record must pass before it is reused."""
        problems: list[str] = []
        for name in CACHE_NAMES:
            if name not in self.cache_deltas or name not in self.cache_states:
                problems.append(f"cache {name} missing")
                continue
            hits, misses, accesses = self.cache_deltas[name]
            if min(hits, misses, accesses) < 0 or hits + misses != accesses:
                problems.append(
                    f"cache {name} delta violates hits+misses==accesses"
                )
        if any(n < 0 for n in self.memory_reads.values()) or any(
            n < 0 for n in self.memory_writes.values()
        ):
            problems.append("negative memory delta")
        if len(self.fstats.quad_fates) and min(
            self.fstats.quad_fates.values()
        ) < 0:
            problems.append("negative quad-fate count")
        return problems


class DrawCache:
    """Draw-level record store with the artifact store's trust model.

    In-memory always; persistent under ``<root>/drawcache/`` when built
    over an :class:`ArtifactStore` — one sealed ``<frame_key>.pkl`` file
    per record, read through :meth:`ArtifactStore.read_entry`, so corrupt
    entries are quarantined (never reused, never silently deleted) exactly
    like artifacts.  ``base_key`` scopes every lookup: records from
    other workloads/configs/code versions can share the directory but
    can never match.
    """

    def __init__(self, store: ArtifactStore | None, base_key: str):
        self.store = store
        self.base_key = base_key
        self._memory: dict[str, FrameRecord] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def directory(self) -> pathlib.Path | None:
        return self.store.drawcache_dir if self.store is not None else None

    def record_path(self, frame_key: str) -> pathlib.Path:
        return self.directory / f"{frame_key}.pkl"

    # -- accounting ------------------------------------------------------
    def _count(self, counter: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        obs_metrics.registry().counter(f"drawcache.{counter}").inc()

    def invalidate(self, frame_key: str, reason: str) -> None:
        """Drop (and quarantine, when persistent) a bad entry."""
        self._count("invalidations")
        self._memory.pop(frame_key, None)
        if self.store is not None:
            self.store.quarantine(
                [self.record_path(frame_key)], f"drawcache {frame_key}: {reason}"
            )

    # -- load / save -----------------------------------------------------
    def load(self, frame_key: str) -> FrameRecord | None:
        """The stored record for ``frame_key``, or ``None``.

        Runs the artifact gauntlet: seal check, guarded unpickle,
        base-key scope check, and :meth:`FrameRecord.violations`
        conservation checks.  Anything that fails is quarantined and
        reported as a miss.  Does *not* bump hit/miss counters — only the
        runner knows whether a miss was even reusable.
        """
        record = self._memory.get(frame_key)
        if record is not None or self.store is None:
            return record

        def decode(header: dict, payload) -> FrameRecord:
            if header.get("base") != self.base_key:
                # Same frame key under another base fingerprint is a
                # SHA-256 collision or tampering — either way, untrustworthy.
                raise ValueError("base-key mismatch")
            record = pickle.loads(payload)
            if not isinstance(record, FrameRecord) or record.frame_key != frame_key:
                raise ValueError("identity mismatch")
            problems = record.violations()
            if problems:
                raise ValueError("; ".join(problems))
            return record

        record = self.store.read_entry(
            self.record_path(frame_key),
            decode,
            "record",
            reject=lambda reason: self.invalidate(frame_key, reason),
        )
        if record is not None:
            self._memory[frame_key] = record
        return record

    def save(self, record: FrameRecord) -> None:
        self._memory[record.frame_key] = record
        if self.store is None:
            return
        try:
            write_sealed(
                self.record_path(record.frame_key),
                {"base": self.base_key},
                pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError:
            pass  # full/read-only volume: run on memory-only

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def job_drawcache(job: JobSpec, store: ArtifactStore | None) -> DrawCache:
    """The draw cache a job's execution shares with its sibling shards."""
    return DrawCache(store, job.draw_base_key())


# -- incremental replay -------------------------------------------------
@dataclass
class IncrementalReport:
    """Per-run reuse accounting (mirrored by the metric family)."""

    frames_reused: int = 0
    frames_simulated: int = 0
    draws_reused: int = 0
    draws_simulated: int = 0
    invalidations: int = 0
    per_frame: list[str] = field(default_factory=list)


def run_trace_incremental(
    sim,
    trace: Trace,
    cache: DrawCache,
    max_frames: int | None = None,
    fragment_stages: bool = True,
    keep_images: int = 0,
    resume: bool = False,
    on_frame=None,
    start_frame: int = 0,
    report: IncrementalReport | None = None,
):
    """Drop-in :meth:`~repro.gpu.pipeline.GpuSimulator.run_trace` with reuse.

    Same contract and bit-identical results (statistics, quad fates, cache
    streams, memory traffic, images): frames whose keys are in ``cache``
    apply their recorded contributions, everything else simulates fresh and
    is recorded.  The skip/fast-forward/shard semantics match ``run_trace``
    exactly, so shards at any ``--jobs`` width compute identical keys and
    share one cache.
    """
    images: list = []
    if resume:
        skip = start_frame + sim.frames_completed
        forward = 0
    else:
        skip = 0
        forward = start_frame
    frames = list(trace.frames())
    run_span = obs_spans.span("gpu.run", "gpu")
    try:
        for index, frame in enumerate(frames):
            if skip > 0:
                skip -= 1
                continue
            if forward > 0:
                forward -= 1
                sim._fast_forward(frame)
                continue
            if max_frames is not None and sim.frames_completed >= max_frames:
                break
            frame_key, draw_keys = frame_keys(
                cache.base_key, sim.machine, frame
            )
            needs_image = len(images) < keep_images
            storable = opens_with_full_clear(frame)
            last = index + 1 >= len(frames) or (
                max_frames is not None
                and sim.frames_completed + 1 >= max_frames
            )
            reusable = storable and (
                last or opens_with_full_clear(frames[index + 1])
            )
            record = cache.load(frame_key) if reusable else None
            if record is not None and record.draw_keys != draw_keys:
                cache.invalidate(frame_key, "per-draw key mismatch")
                record = None
            if record is not None and needs_image and record.image is None:
                record = None  # captured without images; must resimulate
            if record is not None:
                reuse_span = obs_spans.span("gpu.frame.reuse", "gpu")
                fstats = sim.apply_frame_record(record, frame)
                if reuse_span:
                    reuse_span.set("frame", frame.number)
                    reuse_span.set("frame_key", frame_key)
                    reuse_span.set("draws", len(record.draw_keys))
                    sim._publish_frame_metrics(fstats)
                    reuse_span.__exit__(None, None, None)
                cache._count("hits")
                if report is not None:
                    report.frames_reused += 1
                    report.draws_reused += len(record.draw_keys)
                if needs_image:
                    images.append(copy.deepcopy(record.image))
            else:
                fstats, capture = sim.run_frame_captured(
                    frame,
                    fragment_stages=fragment_stages,
                    capture_image=needs_image,
                )
                cache._count("misses")
                if report is not None:
                    report.frames_simulated += 1
                    report.draws_simulated += len(draw_keys)
                if needs_image:
                    images.append(capture["image"])
                if storable:
                    cache.save(
                        FrameRecord(
                            frame_key=frame_key,
                            draw_keys=draw_keys,
                            fstats=copy.deepcopy(fstats),
                            **capture,
                        )
                    )
            if on_frame is not None:
                on_frame(sim, sim.frames_completed)
    finally:
        if run_span:
            run_span.set("frames", sim.frames_completed)
            run_span.set("start_frame", start_frame)
            run_span.set("frames_reused", cache.hits)
            obs_metrics.registry().gauge("gpu.memory_bytes").set(
                int(sim.memory.total_bytes)
            )
            run_span.__exit__(None, None, None)
    if report is not None:
        report.invalidations = cache.invalidations
    return sim.result(images=images)
