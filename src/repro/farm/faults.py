"""Deterministic fault injection for the execution farm.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries that the
farm's recovery machinery can be tested against: worker crashes, hangs,
transient exceptions, corrupted artifacts and checkpoints, unwritable cache
directories (``ENOSPC``/``EROFS``), and native-kernel compile failures.  The
plan is activated by serializing it into the ``REPRO_FAULTS`` environment
variable, so worker processes spawned by the pool inherit it without any
extra plumbing; once-only semantics (``times``) are accounted with marker
files in a shared state directory, so a fault fires a deterministic number
of times *across* processes, not per process.

This module deliberately imports nothing from the rest of :mod:`repro` at
module level: it is used from both the farm layer and from
``repro.gpu._native`` (the compiled-kernel loader), and a stdlib-only
surface keeps that free of import cycles.

Injection points (all no-ops when no plan is installed):

* :func:`on_job_start` — worker entry (``run_job``): crash / hang /
  transient exception before any work happens;
* :func:`on_frame` — frame boundaries inside checkpointed simulations:
  the same three faults, targeted at a chosen frame index;
* :func:`corrupt_file` — artifact / checkpoint / trace bytes after a
  successful sealed write (truncation or a seeded bit flip, modelling
  on-disk corruption);
* :func:`check_writable` — raises ``OSError`` (``ENOSPC`` or ``EROFS``)
  at the top of store writes, modelling a full or read-only cache volume;
* :func:`native_compile_fault` — makes the optional C accelerator report
  itself unbuildable, forcing the pure-Python fallback.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import pathlib
import random
import tempfile
import time
from dataclasses import asdict, dataclass, field

#: Environment variable a serialized plan is installed under (inherited by
#: pool worker processes).
ENV_VAR = "REPRO_FAULTS"

#: Every fault class the injector knows how to perform.
FAULT_KINDS = (
    "crash",  # os._exit(13) — hard worker death, breaks the pool
    "hang",  # sleep for hang_s — exercises the per-round timeout
    "exception",  # raise TransientFault — exercises exception retry
    "corrupt_artifact",  # damage artifact bytes after save
    "corrupt_checkpoint",  # damage checkpoint bytes after save
    "corrupt_trace",  # damage shared-trace bytes after save
    "unwritable",  # store writes raise ENOSPC / EROFS
    "native_compile",  # the C accelerator fails to build/load
)


class TransientFault(RuntimeError):
    """The exception an ``exception`` fault raises (retryable by design)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do, where, and how many times.

    ``match`` is a substring filter on the injection-site label (usually
    ``JobSpec.describe()`` — empty matches everything); ``times`` caps how
    often the fault fires across all processes (``0`` = unlimited);
    ``frame`` restricts crash/hang/exception faults to one frame boundary
    (``None`` restricts them to the job-entry site instead).
    """

    kind: str
    match: str = ""
    times: int = 1
    frame: int | None = None
    hang_s: float = 30.0
    mode: str = "truncate"  # corruption flavor: "truncate" | "bitflip"
    error: str = "ENOSPC"  # unwritable flavor: "ENOSPC" | "EROFS"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded batch of faults plus the shared firing-count state dir."""

    faults: tuple[FaultSpec, ...]
    seed: int = 0
    state_dir: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "state_dir": self.state_dir,
                "faults": [asdict(spec) for spec in self.faults],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(blob: str) -> "FaultPlan":
        doc = json.loads(blob)
        return FaultPlan(
            faults=tuple(FaultSpec(**spec) for spec in doc["faults"]),
            seed=doc.get("seed", 0),
            state_dir=doc.get("state_dir", ""),
        )


# -- plan installation -------------------------------------------------------

#: Lazily parsed plan, cached against the raw env value so repeated firing
#: checks in hot paths cost one ``os.environ`` read.
_cached: tuple[str | None, FaultPlan | None] = (None, None)


def active() -> FaultPlan | None:
    """The installed plan, or ``None`` (the overwhelmingly common case)."""
    global _cached
    raw = os.environ.get(ENV_VAR)
    if _cached[0] != raw:
        plan = None
        if raw:
            try:
                plan = FaultPlan.from_json(raw)
            except (ValueError, KeyError, TypeError):
                plan = None  # malformed plan: inject nothing
        _cached = (raw, plan)
    return _cached[1]


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` for this process and every child it spawns.

    Allocates the marker state directory if the plan doesn't carry one.
    """
    if not plan.state_dir:
        plan = FaultPlan(
            plan.faults, plan.seed, tempfile.mkdtemp(prefix="repro-faults-")
        )
    else:
        os.makedirs(plan.state_dir, exist_ok=True)
    os.environ[ENV_VAR] = plan.to_json()
    return plan


def uninstall() -> None:
    os.environ.pop(ENV_VAR, None)


@contextlib.contextmanager
def injected(plan: FaultPlan):
    """Context manager: install ``plan``, yield it, restore the old state."""
    previous = os.environ.get(ENV_VAR)
    installed = install(plan)
    try:
        yield installed
    finally:
        if previous is None:
            uninstall()
        else:
            os.environ[ENV_VAR] = previous


# -- firing ------------------------------------------------------------------


def _claim(plan: FaultPlan, index: int, spec: FaultSpec) -> bool:
    """Atomically claim one firing slot for ``spec`` (cross-process)."""
    if spec.times <= 0:
        return True  # unlimited: no accounting needed
    if not plan.state_dir:
        return False
    for slot in range(spec.times):
        marker = pathlib.Path(plan.state_dir) / f"fired-{index}-{slot}"
        try:
            fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return False
        os.close(fd)
        return True
    return False


def fire(kind: str, label: str = "", frame: int | None = None) -> FaultSpec | None:
    """Return the first matching, still-armed fault of ``kind``, claiming it.

    ``frame=None`` selects job-entry faults; an integer selects faults
    targeted at exactly that frame boundary.
    """
    plan = active()
    if plan is None:
        return None
    for index, spec in enumerate(plan.faults):
        if spec.kind != kind:
            continue
        if spec.match and spec.match not in label:
            continue
        if (spec.frame is None) != (frame is None):
            continue
        if spec.frame is not None and spec.frame != frame:
            continue
        if _claim(plan, index, spec):
            return spec
    return None


def _perform(spec: FaultSpec | None, label: str) -> None:
    if spec is None:
        return
    if spec.kind == "crash":
        os._exit(13)
    if spec.kind == "hang":
        time.sleep(spec.hang_s)
        return
    if spec.kind == "exception":
        raise TransientFault(f"injected transient fault at {label!r}")


def on_job_start(label: str) -> None:
    """Crash / hang / transient-exception injection at worker entry."""
    if active() is None:
        return
    for kind in ("crash", "hang", "exception"):
        _perform(fire(kind, label), label)


def on_frame(label: str, frame: int) -> None:
    """The same three faults, at a simulation frame boundary."""
    if active() is None:
        return
    for kind in ("crash", "hang", "exception"):
        _perform(fire(kind, label, frame=frame), label)


def corrupt_file(kind: str, path: pathlib.Path, label: str = "") -> bool:
    """Damage ``path`` in place if a matching corruption fault is armed.

    ``truncate`` keeps the first half of the file; ``bitflip`` flips one
    bit at a position drawn deterministically from the plan seed and the
    file name.  Returns whether corruption happened.
    """
    plan = active()
    if plan is None:
        return False
    spec = fire(kind, label or path.name)
    if spec is None:
        return False
    try:
        data = path.read_bytes()
    except OSError:
        return False
    if not data:
        return False
    if spec.mode == "bitflip":
        rng = random.Random(f"{plan.seed}:{path.name}")
        position = rng.randrange(len(data))
        flipped = data[position] ^ (1 << rng.randrange(8))
        data = data[:position] + bytes([flipped]) + data[position + 1 :]
    else:
        data = data[: len(data) // 2]
    try:
        path.write_bytes(data)
    except OSError:
        return False
    return True


def check_writable(label: str = "") -> None:
    """Raise ``OSError`` if an ``unwritable`` fault is armed for ``label``."""
    if active() is None:
        return
    spec = fire("unwritable", label)
    if spec is None:
        return
    code = errno.EROFS if spec.error == "EROFS" else errno.ENOSPC
    raise OSError(code, f"injected {spec.error} fault: {os.strerror(code)}")


def native_compile_fault() -> bool:
    """Whether the native-kernel build is currently fault-disabled."""
    return active() is not None and fire("native_compile", "native") is not None


def reset_native_if_planned() -> None:
    """Re-probe the native accelerator when a plan targets its build.

    Pool workers are usually forked, so they inherit the parent's cached
    probe result; clearing it at worker entry lets a ``native_compile``
    fault take effect inside the worker regardless of parent state.
    """
    plan = active()
    if plan is None or not any(s.kind == "native_compile" for s in plan.faults):
        return
    from repro.gpu import _native

    _native._reset()
