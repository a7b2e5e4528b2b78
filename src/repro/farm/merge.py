"""Deterministic recombination of frame-sharded measurement results.

A run sharded into contiguous frame slices (see :meth:`JobSpec.shard
<repro.farm.job.JobSpec.shard>`) produces one partial result per slice;
this module folds them back into the exact result a serial run produces:

* **counters** — every :class:`~repro.gpu.stats.FrameGpuStats` field and
  quad-fate bucket is additive, so the run totals are the fold of the
  per-frame records (:func:`repro.gpu.stats.merge_frames`);
* **memory traffic** — per-client byte counts are additive;
* **caches** — hit/miss/access counts are additive across slices, and the
  *contents* after the last slice equal a serial run's final contents,
  because every frame opens with a full clear that drops z/color/texture
  cache data (frame coherence is what makes slices independent);
* **images** — each slice renders its own frames; concatenation in frame
  order is the serial sequence.

Slice boundaries are inferred from the frame numbers carried by the
results themselves, which makes the merge a pure function of its inputs:
it is associative (merging merged halves equals merging all slices) and
order-invariant (slices may arrive in any order), properties
``tests/test_merge.py`` checks directly.  Inputs are never mutated.
Frame shards are the farm's one per-frame result unit: an in-slice
checkpoint (:mod:`repro.farm.checkpoint`) is the result of the frames a
slice finished, and its resume merges it with the rest of the slice.
"""

from __future__ import annotations

import copy
from typing import Any, Sequence

from repro.api.stats import WorkloadApiStats
from repro.gpu.memory import MemoryController
from repro.gpu.pipeline import SimulationResult
from repro.gpu.stats import merge_frames


class MergeError(ValueError):
    """The given partial results do not tile one contiguous frame range."""


def _check_contiguous(label: str, frame_numbers: list[int]) -> None:
    for prev, cur in zip(frame_numbers, frame_numbers[1:]):
        if cur != prev + 1:
            raise MergeError(
                f"{label}: frame {cur} follows frame {prev}; shards must "
                "tile one contiguous frame range with no gaps or overlaps"
            )


def merge_simulations(parts: Sequence[SimulationResult]) -> SimulationResult:
    """Fold simulation slices (any order) into the serial-run result."""
    if not parts:
        raise MergeError("nothing to merge")
    for part in parts:
        if not part.frame_stats:
            raise MergeError("cannot merge an empty simulation slice")
    ordered = sorted(parts, key=lambda p: p.frame_stats[0].frame)
    first = ordered[0]
    for part in ordered[1:]:
        if part.config != first.config:
            raise MergeError("simulation slices ran under different configs")

    frame_stats = [fs for part in ordered for fs in part.frame_stats]
    _check_contiguous("simulation", [fs.frame for fs in frame_stats])

    memory = MemoryController()
    for part in ordered:
        for client, nbytes in part.memory.reads.items():
            memory.reads[client] += nbytes
        for client, nbytes in part.memory.writes.items():
            memory.writes[client] += nbytes

    # The last slice's cache state *is* the serial end state (each frame
    # starts from dropped contents); only the whole-run counters need the
    # other slices' contributions.  Copy before patching — inputs stay
    # untouched so a part can participate in several merges.  Each cache
    # keeps sharing its (frozen) config with the result's GpuConfig, as in
    # a serial run, so merged fresh slices pickle to the serial bytes.
    last = ordered[-1]
    shared = {id(c.config): c.config for c in last.caches.values()}
    caches = copy.deepcopy(last.caches, shared)
    for name, cache in caches.items():
        cache.hits = sum(p.caches[name].hits for p in ordered)
        cache.misses = sum(p.caches[name].misses for p in ordered)
        cache.accesses = sum(p.caches[name].accesses for p in ordered)

    return SimulationResult(
        stats=merge_frames(frame_stats),
        frame_stats=frame_stats,
        memory=memory,
        caches=caches,
        config=last.config,
        images=[image for part in ordered for image in part.images],
    )


def merge_api_stats(parts: Sequence[WorkloadApiStats]) -> WorkloadApiStats:
    """Fold API-statistics slices (any order) into the whole-demo stats."""
    if not parts:
        raise MergeError("nothing to merge")
    for part in parts:
        if not part.frames:
            raise MergeError("cannot merge an empty API-statistics slice")
    ordered = sorted(parts, key=lambda p: p.frames[0].frame)
    first = ordered[0]
    for part in ordered[1:]:
        if (part.name, part.index_size_bytes) != (
            first.name,
            first.index_size_bytes,
        ):
            raise MergeError("API slices describe different workloads")
    merged = WorkloadApiStats(
        name=first.name, index_size_bytes=first.index_size_bytes
    )
    for part in ordered:
        for frame in part.frames:
            merged.add(frame)
    _check_contiguous("api", [f.frame for f in merged.frames])
    return merged


def merge_results(parts: Sequence[Any]) -> Any:
    """Type-dispatching merge; single slices pass through unchanged."""
    if not parts:
        raise MergeError("nothing to merge")
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, SimulationResult) for p in parts):
        return merge_simulations(parts)
    if all(isinstance(p, WorkloadApiStats) for p in parts):
        return merge_api_stats(parts)
    raise MergeError(
        "cannot merge mixed or unknown result types: "
        + ", ".join(sorted({type(p).__name__ for p in parts}))
    )
