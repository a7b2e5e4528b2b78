"""The ``engines`` and ``exhibits`` workloads: the farm through ``Runner``.

Both run through public entry points only, at the CLI's default width
(``jobs = nproc``) on fresh stores, and use the registered workload seeds
the paper comparison depends on.  A pass returns its timings and results;
the output checks run afterwards, outside the timed (and traced) region.
"""

from __future__ import annotations

import os
import time

from perfbench import checks, tally
from perfbench.common import (CpuMeter, SpeedProbe, children, median,
                              peak_rss_mb, wait_children)
from perfbench.metrics import ENGINE_LABELS

#: Tables the generators were not calibrated on (DESIGN.md calibrates on
#: I/III/IV/V/XII); VII reads geometry-only runs, the rest simulations.
HELD_OUT = ("table7", "table8", "table9", "table10", "table11", "table13",
            "table14", "table15", "table16", "table17")

#: Reduced ``exhibits`` budget: API, simulated and geometry-only frames.
#: Small enough for a run, and it keeps all three job kinds.
EXHIBITS_BUDGET = (8, 1, 8)


def _jobs() -> int:
    return os.cpu_count() or 1


def _farm_stats(runner) -> dict:
    telemetry = runner.telemetry
    return {
        "phases": dict(telemetry.phases),
        "jobs": len(telemetry.records),
        "cache_hits": telemetry.cache_hits,
        "retries": telemetry.retries,
        "failed": telemetry.failed,
        "quarantined": len(runner.farm.store.quarantined_files()),
    }


def _add_warm(farm: dict, runner) -> None:
    """Fold a warm runner's job records into the pass's farm numbers."""
    telemetry = runner.telemetry
    farm["jobs"] += len(telemetry.records)
    farm["cache_hits"] += telemetry.cache_hits
    farm["retries"] += telemetry.retries
    farm["failed"] += telemetry.failed


class Outcome:
    """Operations attempted and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- engines -----------------------------------------------------------------
def engines_pass(scratch, jobs: int | None = None, frames: int | None = None,
                 engines: tuple[str, ...] | None = None,
                 warm_repeats: int = 20) -> dict:
    """One cold ``Runner.sim`` per engine, then warm re-reads of the store."""
    from repro.experiments import paper
    from repro.experiments.runner import ExperimentConfig, Runner

    config = ExperimentConfig() if frames is None else ExperimentConfig(
        sim_frames=frames)
    engines = engines or tuple(paper.SIMULATED)
    store = scratch.store()
    begin = time.perf_counter()
    with SpeedProbe() as probe:
        cpu = CpuMeter()
        runner = Runner(config, jobs=jobs or _jobs(), cache_dir=store)
        cold, results = {}, {}
        for name in engines:
            start = time.perf_counter()
            results[name] = runner.sim(name)
            cold[name] = time.perf_counter() - start
        cold_cpu = cpu.stop()
    rss = peak_rss_mb(children())
    farm = _farm_stats(runner)
    store_bytes = runner.farm.store.total_bytes()
    runner.farm.close()
    warm, warm_results = [], {}
    for _ in range(warm_repeats):
        start = time.perf_counter()
        again = Runner(config, jobs=jobs or _jobs(), cache_dir=store)
        warm_results = {name: again.sim(name) for name in engines}
        warm.append(time.perf_counter() - start)
        again.farm.close()
        _add_warm(farm, again)
    wait_children()
    return {
        "wall": time.perf_counter() - begin,
        "frames": config.sim_frames,
        "cold": cold,
        "cold_cpu": cold_cpu,
        "speed": probe.factor,
        "warm": warm,
        "results": results,
        "warm_results": warm_results,
        "runner": runner,
        "rss": rss,
        "farm": farm,
        "store_bytes": store_bytes,
    }


def check_engines(result: dict, refs: dict | None, out: Outcome) -> None:
    """Fingerprint against the reference, invariants, warm == cold."""
    from repro.farm import JobSpec
    from repro.farm.invariants import validate_result

    frames = result["frames"]
    for name, sim in result["results"].items():
        digest = checks.sim_fingerprint(sim)
        violations = validate_result(JobSpec("sim", name, frames), sim)
        want = None if refs is None else refs.get(f"{name}@{frames}")
        ok = not violations and (refs is None or digest == want)
        out.check(ok, f"engines {name}: fingerprint {digest[:12]} "
                      f"(reference {str(want)[:12]}) {violations[:2]}")
        warm = result["warm_results"].get(name)
        if warm is not None:
            out.check(checks.sim_fingerprint(warm) == digest,
                      f"engines {name}: warm result differs from cold")


def engines_layers(result: dict) -> dict:
    """Per-layer numbers an untraced ``engines`` pass yields."""
    counters = tally.new()
    for sim in result["results"].values():
        tally.tally(counters, sim)
    layers = tally.gpu_metrics(counters)
    frames = result["frames"]
    for name, label in ENGINE_LABELS.items():
        wall = result["cold"].get(name)
        layers[f"sim_s_per_frame.{label}"] = wall / frames if wall else 0.0
    layers["sim_warm_s_per_frame"] = engines_e2e([result])[1]
    layers["paper_error_pct"] = held_out_error(
        result["runner"], [t for t in HELD_OUT if t != "table7"])
    return layers


def engines_e2e(passes: list[dict]) -> tuple[float, float]:
    """``cold_s`` (CPU seconds at the reference speed) and warm wall
    seconds, per frame."""
    cold = [p["cold_cpu"] / p["speed"] / (p["frames"] * len(p["cold"]))
            for p in passes]
    warm = [w / (p["frames"] * len(p["cold"]))
            for p in passes for w in p["warm"]]
    return median(cold), median(warm)


def held_out_error(runner, names) -> float:
    """Mean relative error (%) of the held-out tables against the paper."""
    from repro.experiments import scorecard, tables

    errors = [
        scorecard.score_comparison(name, tables.ALL_TABLES[name](
            runner=runner)).mean_rel_error
        for name in names
    ]
    return 100.0 * sum(errors) / len(errors)


# -- exhibits ---------------------------------------------------------------
def exhibits_pass(scratch, jobs: int | None = None, budget=EXHIBITS_BUDGET,
                  min_warm: int = 20, until: float | None = None) -> dict:
    """Cold regeneration on an empty store, then warm regenerations.

    Each warm pass is a fresh ``Runner`` on the filled store.  Warm passes
    continue until ``until`` (a ``perf_counter`` deadline), at least
    ``min_warm`` of them.
    """
    from repro.experiments import scorecard
    from repro.experiments.runner import ExperimentConfig, Runner

    config = ExperimentConfig(*budget)
    store = scratch.store()
    begin = time.perf_counter()
    with SpeedProbe() as probe:
        cpu = CpuMeter()
        runner = Runner(config, jobs=jobs or _jobs(), cache_dir=store)
        runner.prefetch()
        text = scorecard.experiments_markdown(runner)
        cold = time.perf_counter() - begin
        cold_cpu = cpu.stop()
    rss = peak_rss_mb(children())
    farm = _farm_stats(runner)
    store_bytes = runner.farm.store.total_bytes()
    runner.farm.close()
    warm, same = [], []
    while len(warm) < min_warm or (until is not None
                                   and time.perf_counter() < until):
        start = time.perf_counter()
        again = Runner(config, jobs=jobs or _jobs(), cache_dir=store)
        again.prefetch()
        warm_text = scorecard.experiments_markdown(again)
        warm.append(time.perf_counter() - start)
        again.farm.close()
        _add_warm(farm, again)
        same.append(warm_text == text)
    wait_children()
    return {
        "wall": time.perf_counter() - begin,
        "budget": budget,
        "cold": cold,
        "cold_cpu": cold_cpu,
        "speed": probe.factor,
        "warm": warm,
        "text": text,
        "warm_same": same,
        "runner": runner,
        "rss": rss,
        "farm": farm,
        "store_bytes": store_bytes,
    }


def exhibits_budget_key(budget) -> str:
    return "/".join(str(n) for n in budget)


def check_exhibits(result: dict, refs: dict | None, out: Outcome) -> None:
    digest = checks.text_fingerprint(result["text"])
    want = None if refs is None else refs.get(
        exhibits_budget_key(result["budget"]))
    out.check(refs is None or digest == want,
              f"exhibits: markdown {digest[:12]} (reference {str(want)[:12]})")
    for index, same in enumerate(result["warm_same"]):
        out.check(same, f"exhibits: warm pass {index} differs from the cold "
                        "pass")


def exhibits_layers(result: dict) -> dict:
    from repro.experiments import paper

    runner = result["runner"]
    counters = tally.new()
    for name in paper.SIMULATED:
        tally.tally(counters, runner.sim(name))
        tally.tally(counters, runner.geometry(name))
    for spec_name in paper.WORKLOAD_ORDER:
        tally.tally(counters, runner.api(spec_name))
    layers = tally.gpu_metrics(counters)
    layers["exhibits_cold_s"] = result["cold"]
    layers["exhibits_warm_s"] = median(result["warm"])
    layers["paper_error_pct"] = held_out_error(runner, HELD_OUT)
    return layers


def farm_layers(result: dict) -> dict:
    """``farm.*`` numbers of an untraced pass, from the farm's telemetry."""
    from perfbench.metrics import FARM_PHASES

    farm = result["farm"]
    layers = {f"farm.phase.{phase}_s": farm["phases"].get(phase, 0.0)
              for phase in FARM_PHASES}
    for name in ("jobs", "retries", "failed", "quarantined"):
        layers[f"farm.{name}"] = farm[name]
    layers["farm.store.hit_rate"] = (
        farm["cache_hits"] / farm["jobs"] if farm["jobs"] else 0.0)
    layers["farm.store.bytes"] = result["store_bytes"]
    return layers
