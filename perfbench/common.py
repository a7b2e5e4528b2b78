"""Process plumbing shared by the workloads: environment, memory, set-up."""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

#: Environment the program reads that would move it off the defaults users
#: get (budgets, sharding, incremental replay, fault plans, tracing, a
#: shared store).  ``REPRO_NO_NATIVE`` is kept and recorded instead.
SCRUBBED_ENV = (
    "REPRO_API_FRAMES", "REPRO_SIM_FRAMES", "REPRO_GEOM_FRAMES",
    "REPRO_CACHE_DIR", "REPRO_FARM_JOBS", "REPRO_FARM_SHARDS",
    "REPRO_INCREMENTAL", "REPRO_FAULTS", "REPRO_OBSERVE",
)


def scrub_env() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


class Scratch:
    """Fresh temporary stores under one directory, removed on close."""

    def __init__(self, root: str):
        os.makedirs(root, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=root)

    def store(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.root)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid: int | None = None) -> list[int]:
    """Live child processes of ``pid`` (default: this process)."""
    pid = pid or os.getpid()
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                found += [int(p) for p in fh.read().split()]
        except OSError:
            continue
    return found


def wait_children(timeout: float = 60.0) -> None:
    """Wait until every child process (e.g. a closed pool's workers) ended."""
    deadline = time.monotonic() + timeout
    while children() and time.monotonic() < deadline:
        time.sleep(0.01)


def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) process ``pid`` has used.

    Read at clock-tick resolution; 0 once the process is gone.  Time the
    hypervisor steals from the virtual CPU is not charged to the process.
    """
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class CpuMeter:
    """CPU seconds of this process plus its live child processes.

    Started before some work and stopped after it, with the farm's workers
    still alive: a worker that exits before :meth:`stop` is not counted.
    A process is not charged while it waits for a CPU, so this leaves out
    the time the work queued behind other processes.
    """

    def __init__(self):
        self.start = time.process_time()
        self.kids = {pid: proc_cpu_s(pid) for pid in children()}

    def stop(self) -> float:
        own = time.process_time() - self.start
        return own + sum(proc_cpu_s(pid) - self.kids.get(pid, 0.0)
                         for pid in children())


#: CPU seconds :func:`_probe_chunk` takes at the reference host speed,
#: about its median on the 2-vCPU virtual machine the benchmark was
#: defined on (Python 3.11).
REFERENCE_CHUNK_S = 1.5e-3
#: Seconds between two probe chunks.
PROBE_INTERVAL_S = 0.05


def _probe_chunk() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """How fast the host runs right now, sampled while measured work runs.

    On a shared host the same work takes up to 1.6 times as long, in CPU
    time as in wall time, from one minute to the next.  While the probe is
    entered, a thread runs a fixed chunk of pure-Python work every
    :data:`PROBE_INTERVAL_S` and records the chunk's CPU time.
    :attr:`factor` is their median over :data:`REFERENCE_CHUNK_S`;
    dividing a time measured over the same interval by it gives the time
    at the reference speed.  The probe costs about 3% of one CPU.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            _probe_chunk()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        return median(self.samples) / REFERENCE_CHUNK_S


def peak_rss_mb(extra_pids: list[int] = ()) -> float:
    """Peak resident memory of this process plus ``extra_pids``, in MB.

    Each process contributes its own high-water mark (``VmHWM``); pages a
    forked worker shares with its parent count in both.
    """
    pids = [os.getpid(), *extra_pids]
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def provenance(native: bool) -> dict:
    """The ``meta`` block: machine, toolchain and program revision."""
    import numpy

    from repro.compare.meta import run_meta
    from repro.farm.version import code_version

    meta = run_meta()
    meta.update(
        numpy=numpy.__version__,
        native_loaded=native,
        repro_no_native=os.environ.get("REPRO_NO_NATIVE", ""),
        code_version=code_version(),
        processor=platform.processor() or platform.machine(),
    )
    if (os.cpu_count() or 1) < 2:
        meta["parallelism"] = (
            "not measurable: cpu_count=1, so shard and pool parallelism "
            "cannot be measured on this host"
        )
    return meta


#: A fresh process's set-up: import, native kernels, a Runner on ``argv[1]``.
_RUNNER_SETUP = (
    "import os, sys\n"
    "import repro\n"
    "from repro.gpu import _native\n"
    "_native.available()\n"
    "from repro.experiments.runner import Runner\n"
    "Runner(jobs=os.cpu_count() or 1, cache_dir=sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


def runner_setup_s(store: str) -> float:
    """Seconds from spawning a process to its ``Runner`` being ready."""
    begin = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _RUNNER_SETUP, store],
                            stdout=subprocess.PIPE, text=True)
    with proc:
        ready = proc.stdout.readline().strip() == "ready"
        seconds = time.perf_counter() - begin
    if not ready or proc.returncode != 0:
        raise RuntimeError("set-up process failed")
    return seconds


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
