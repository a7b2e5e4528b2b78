"""Content-addressed description of one measurement run.

A :class:`JobSpec` captures everything that determines a run's output:
the measurement kind, the workload, the frame budget, the seed, and any
GPU-configuration override.  Its :meth:`~JobSpec.key` folds those together
with the registered workload spec (so recalibrating an engine invalidates
its artifacts) and the source-tree fingerprint (so code changes do too)
into the hash the artifact store files results under.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass

from repro.farm.version import code_version
from repro.gpu.config import GpuConfig

#: The three measurement kinds every exhibit bottoms out in.
KINDS = ("api", "sim", "geometry")


def _canonical(value):
    """JSON-serializable canonical form of specs/configs for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, float):
        return repr(value)
    return value


@dataclass(frozen=True)
class JobSpec:
    """One measurement run: hashable, picklable, and cheap to construct.

    ``seed=None`` uses the workload's registered seed; an explicit value
    overrides it (and lands in the cache key).  ``config=None`` uses the
    workload's default simulator configuration.

    ``frame_offset``/``trace_frames`` describe a *frame shard*: the job
    covers frames ``[frame_offset, frame_offset + frames)`` of the
    ``trace_frames``-frame timedemo.  ``trace_frames`` is part of the slice
    identity because the synthetic camera path is normalized by the total
    frame count — frame 1 of a 2-frame demo is not frame 1 of a 3-frame
    demo.  The default (``0``/``None``) is a whole run: frames ``[0,
    frames)`` of the ``frames``-frame demo, exactly the pre-shard spec.
    """

    kind: str  # "api" | "sim" | "geometry"
    workload: str
    frames: int
    seed: int | None = None
    config: GpuConfig | None = None
    frame_offset: int = 0
    trace_frames: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.frames <= 0:
            raise ValueError("frame budget must be positive")
        if self.frame_offset < 0:
            raise ValueError("frame offset must be non-negative")
        if self.trace_frames is not None and (
            self.trace_frames < self.frame_offset + self.frames
        ):
            raise ValueError("trace_frames shorter than the frame slice")

    @property
    def fragment_stages(self) -> bool:
        return self.kind != "geometry"

    @property
    def sim_profile(self) -> bool:
        return self.kind in ("sim", "geometry")

    @property
    def total_frames(self) -> int:
        """Length of the timedemo this job's frame slice is cut from."""
        if self.trace_frames is not None:
            return self.trace_frames
        return self.frame_offset + self.frames

    @property
    def is_shard(self) -> bool:
        return self.frame_offset > 0 or (
            self.trace_frames is not None and self.trace_frames != self.frames
        )

    def describe(self) -> str:
        base = f"{self.kind}:{self.workload}@{self.frames}f"
        if self.is_shard:
            base += f"+{self.frame_offset}/{self.total_frames}"
        return base

    def fingerprint(self) -> dict:
        """The full invalidation surface, as a canonical document."""
        from repro.workloads.registry import workload as lookup

        spec = lookup(self.workload)
        return {
            "kind": self.kind,
            "workload": self.workload,
            "frames": self.frames,
            "frame_offset": self.frame_offset,
            "trace_frames": self.total_frames,
            "seed": self.seed if self.seed is not None else spec.seed,
            "spec": _canonical(spec),
            "config": _canonical(self.config) if self.config else "default",
            "code": code_version(),
        }

    def key(self) -> str:
        """Content hash the artifact store files this job's result under."""
        blob = json.dumps(self.fingerprint(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    # -- traces ----------------------------------------------------------
    def trace_fingerprint(self) -> dict:
        """Invalidation surface of the generated trace itself.

        Narrower than :meth:`fingerprint`: every shard of one run replays
        the same call stream, so the trace is stored once per (workload,
        seed, profile, length) and loaded by every worker that needs any
        slice of it.  ``sim`` and ``geometry`` jobs of one total length
        share a file; ``api`` jobs store none: they stream the full-scale
        profile (:attr:`sim_profile` is False), which no other kind replays.
        """
        from repro.workloads.registry import workload as lookup

        spec = lookup(self.workload)
        return {
            "workload": self.workload,
            "sim_profile": self.sim_profile,
            "frames": self.total_frames,
            "seed": self.seed if self.seed is not None else spec.seed,
            "spec": _canonical(spec),
            "code": code_version(),
        }

    def trace_key(self) -> str:
        """Content hash the shared trace store files this demo under."""
        blob = json.dumps(self.trace_fingerprint(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    # -- sharding --------------------------------------------------------
    def shard(self, pieces: int) -> tuple["JobSpec", ...]:
        """Split this run into up to ``pieces`` contiguous frame shards.

        Shards carry this job's full frame count as ``trace_frames`` so
        they all replay slices of the *same* timedemo.  Splitting a shard
        further, or splitting into one piece, returns the job unchanged.
        """
        pieces = min(int(pieces), self.frames)
        if pieces <= 1 or self.is_shard:
            return (self,)
        base, extra = divmod(self.frames, pieces)
        shards = []
        offset = self.frame_offset
        for index in range(pieces):
            length = base + (1 if index < extra else 0)
            shards.append(
                dataclasses.replace(
                    self,
                    frames=length,
                    frame_offset=offset,
                    trace_frames=self.total_frames,
                )
            )
            offset += length
        return tuple(shards)


def api_job(workload: str, frames: int, seed: int | None = None) -> JobSpec:
    """Full-profile API-statistics run (Tables III-V, XII; Figs. 1-3, 8)."""
    return JobSpec("api", workload, frames, seed=seed)


def sim_job(
    workload: str,
    frames: int,
    seed: int | None = None,
    config: GpuConfig | None = None,
) -> JobSpec:
    """Full-pipeline simulation on the reduced profile (Tables VIII-XVII)."""
    return JobSpec("sim", workload, frames, seed=seed, config=config)


def geometry_job(
    workload: str,
    frames: int,
    seed: int | None = None,
    config: GpuConfig | None = None,
) -> JobSpec:
    """Geometry-only simulation over more frames (Table VII, Figs. 5-6)."""
    return JobSpec("geometry", workload, frames, seed=seed, config=config)
