"""repro — a reproduction of 'Workload Characterization of 3D Games'.

IISWC 2006, Roca / Moya / Gonzalez / Solis / Fernandez / Espasa.

The package rebuilds the paper's measurement stack: an API-level tracing
framework (:mod:`repro.api`), a functional GPU pipeline simulator
(:mod:`repro.gpu`), a shader ISA (:mod:`repro.shader`), procedural geometry
(:mod:`repro.geometry`), synthetic game workloads standing in for the
original timedemos (:mod:`repro.workloads`), and the experiment harness that
regenerates every table and figure (:mod:`repro.experiments`).

The stable public entry points route through the execution farm (cached,
parallel-safe)::

    import repro

    result = repro.simulate("Doom3/trdemo2", frames=6)
    print(result.stats.quad_fate_percent)

    stats = repro.api_stats("UT2004/Primeval")

Lower-level pieces (:class:`GpuSimulator`, :func:`build_workload`, …) remain
importable for callers that need to drive the pipeline directly.
"""

from repro.api.tracer import ApiTracer
from repro.experiments.runner import (
    ExperimentConfig,
    api_stats,
    simulate,
)
from repro.gpu.config import GpuConfig
from repro.gpu.pipeline import GpuSimulator, SimulationResult
from repro.workloads import build_workload, all_workloads, workload

__version__ = "7.0.0"

__all__ = [
    "ApiTracer",
    "ExperimentConfig",
    "GpuConfig",
    "GpuSimulator",
    "SimulationResult",
    "api_stats",
    "build_workload",
    "all_workloads",
    "simulate",
    "workload",
    "__version__",
]
