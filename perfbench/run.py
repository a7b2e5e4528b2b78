#!/usr/bin/env python3
"""The repository benchmark: ``engines``, ``exhibits`` and ``serve``.

    python3 perfbench/run.py --workload engines --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` times the workload with no
wrappers and prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass and one traced pass and prints the per-layer metrics, the traced
pass's self-time accounting and ``trace_overhead_pct``.  Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results document
(``meta`` plus flattened metric names, readable by ``repro compare``) and,
for traced runs, a Chrome-trace span dump go to ``.perfbench/results/``.
See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 7


def _paths() -> None:
    paths = [os.path.join(ROOT, "src"), ROOT]
    sys.path[:0] = paths
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])


# -- traced pass ------------------------------------------------------------
def traced(fn, scratch):
    """Run ``fn(jobs)`` with every wrapper installed; returns the accounting.

    Farm workers hand their spans over through a spool directory.  If the
    worker hook is missing the farm runs serially (``jobs=1``) instead, and
    the result says so.
    """
    from perfbench import hooks, spans

    rec = spans.SpanRecorder(spool_dir=scratch.store())
    installed = hooks.install(rec)
    jobs = None if installed.worker_spans else 1
    start = time.perf_counter_ns()
    try:
        result = fn(jobs)
    finally:
        end = time.perf_counter_ns()
        installed.remove()
    dumps = rec.collect()
    return result, {
        "accounting": spans.account(dumps, start, end),
        "dumps": dumps,
        "start_ns": start,
        "layers": installed.layers,
        "missing": installed.missing,
        "farm": "serial" if jobs == 1 else "parallel (workers traced)",
    }


def span_layers(trace: dict, counts: dict) -> dict:
    """Self times, call counts, ``other.self_s`` and host cost per event."""
    from perfbench.metrics import SELF_ONLY, TIMED_LAYERS

    acc = trace["accounting"]
    layers = {}
    for layer in TIMED_LAYERS + SELF_ONLY:
        if layer not in trace["layers"]:
            continue  # missing hook: its metrics stay absent
        layers[f"{layer}.self_s"] = acc["self_s"].get(layer, 0.0)
        if layer in TIMED_LAYERS:
            layers[f"{layer}.calls"] = acc["calls"].get(layer, 0)
    layers["other.self_s"] = acc["other_s"]
    busy = acc["busy_s"]

    def per(seconds: float, events: float) -> float:
        return seconds * 1e9 / events if events else 0.0

    gpu_busy = sum(s for name, s in busy.items() if name.startswith("gpu."))
    layers["gpu.ns_per_fragment"] = per(
        gpu_busy, counts.get("gpu.fragments_rasterized", 0))
    layers["gpu.texture.ns_per_bilinear"] = per(
        busy.get("gpu.texture", 0.0), counts.get("gpu.bilinear_samples", 0))
    layers["gpu.alu.ns_per_instruction"] = per(
        busy.get("gpu.alu", 0.0), counts.get("gpu.fragment_instructions", 0))
    return layers


def overhead_pct(traced_wall: float, untraced_wall: float) -> float:
    return 100.0 * (traced_wall / untraced_wall - 1.0)


def timed_setups(setup) -> tuple[float, dict]:
    """``setup_s``: median of :data:`SETUPS` set-ups at the reference speed.

    Returns it with the raw median wall time and the host speed factor.
    """
    from perfbench.common import SpeedProbe, median

    with SpeedProbe() as probe:
        seconds = median([setup() for _ in range(SETUPS)])
    return seconds / probe.factor, {"setup_wall_s": seconds,
                                    "setup_speed": probe.factor}


# -- workloads ---------------------------------------------------------------
def run_engines(args, scratch, refs, out):
    from perfbench import workloads as w
    from perfbench.common import median, runner_setup_s
    from perfbench.metrics import ENGINE_LABELS

    if not args.trace:
        setup_s, extra = timed_setups(
            lambda: runner_setup_s(scratch.store()))
        deadline = time.perf_counter() + args.seconds
        passes = []
        while not passes or time.perf_counter() < deadline:
            p = w.engines_pass(scratch)
            w.check_engines(p, refs, out)
            passes.append({k: p[k] for k in (
                "cold", "cold_cpu", "speed", "warm", "frames", "rss")})
        cold, warm = w.engines_e2e(passes)
        extra.update(passes=len(passes), sim_warm_s_per_frame=warm,
                     cold_speed=median([p["speed"] for p in passes]))
        for name, label in ENGINE_LABELS.items():
            extra[f"sim_s_per_frame.{label}"] = median(
                [p["cold"][name] / p["frames"] for p in passes])
        return {
            "setup_s": setup_s,
            "peak_rss_mb": max(p["rss"] for p in passes),
            "cold_s": cold,
        }, extra, None
    p = w.engines_pass(scratch)
    w.check_engines(p, refs, out)
    layers = {**w.engines_layers(p), **w.farm_layers(p)}
    t, trace = traced(lambda jobs: w.engines_pass(scratch, jobs=jobs), scratch)
    w.check_engines(t, refs, out)
    layers.update(span_layers(trace, layers))
    layers["trace_overhead_pct"] = overhead_pct(t["wall"], p["wall"])
    return layers, {}, trace


def run_exhibits(args, scratch, refs, out):
    from perfbench import workloads as w
    from perfbench.common import median, runner_setup_s

    if not args.trace:
        setup_s, extra = timed_setups(
            lambda: runner_setup_s(scratch.store()))
        p = w.exhibits_pass(
            scratch, until=time.perf_counter() + args.seconds)
        w.check_exhibits(p, refs, out)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": p["rss"],
            "cold_s": p["cold_cpu"] / p["speed"],
        }, {
            **extra,
            "cold_speed": p["speed"],
            "cold_cpu_s": p["cold_cpu"],
            "warm_passes": len(p["warm"]),
            "exhibits_cold_s": p["cold"],
            "exhibits_warm_s": median(p["warm"]),
            "paper_error_pct": w.held_out_error(p["runner"], w.HELD_OUT),
        }, None
    p = w.exhibits_pass(scratch)
    w.check_exhibits(p, refs, out)
    layers = {**w.exhibits_layers(p), **w.farm_layers(p)}
    t, trace = traced(lambda jobs: w.exhibits_pass(scratch, jobs=jobs),
                      scratch)
    w.check_exhibits(t, refs, out)
    layers.update(span_layers(trace, layers))
    layers["trace_overhead_pct"] = overhead_pct(t["wall"], p["wall"])
    return layers, {}, trace


def run_serve(args, scratch, refs, out):
    from perfbench import serve_load as s
    from perfbench import spans, tally
    from perfbench.common import peak_rss_mb
    from repro.farm import ArtifactStore

    sequence = s.request_sequence(args.seed)
    if not args.trace:
        server = None

        def boot() -> float:  # the last server boot serves the load
            nonlocal server
            if server is not None:
                server.close()
            seconds, server = s.ServerProc.start(scratch.store())
            return seconds

        try:
            setup_s, extra = timed_setups(boot)
            load = s.run_load(server, sequence)
            rss = peak_rss_mb([server.pid])
        finally:
            if server is not None:
                server.close()
        s.check_serve(load, refs, out)
        e = s.serve_e2e(load)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "cold_s": e["cpu_per_request"],
        }, {**extra, "cold_speed": load["speed"],
            "requests": e["n"], "serve_p50_s": e["p50"],
            "serve_p95_s": e["p95"], "serve_rps": e["rps"],
            "fresh_share": _fresh_share(load)}, None
    _, server = s.ServerProc.start(scratch.store())
    try:
        load = s.run_load(server, sequence)
    finally:
        server.close()
    s.check_serve(load, refs, out)
    layers = s.serve_layers(load)
    dump_path = os.path.join(scratch.store(), "server-spans.json")
    traced_store = scratch.store()
    _, server = s.ServerProc.start(traced_store, spans=dump_path)
    start = time.perf_counter_ns()
    try:
        traced_load = s.run_load(server, sequence)
    finally:
        end = time.perf_counter_ns()
        server.close()
    s.check_serve(traced_load, refs, out)
    with open(dump_path) as fh:
        dumps = [json.load(fh)]
    counters = tally.new()
    counters.update(dumps[0]["counters"])
    layers.update(tally.gpu_metrics(counters))
    layers["farm.store.bytes"] = ArtifactStore(traced_store).total_bytes()
    trace = {
        "accounting": spans.account(dumps, start, end),
        "dumps": dumps,
        "start_ns": start,
        "layers": set(dumps[0]["layers"]),
        "missing": dumps[0]["missing"],
        "farm": "serial lanes in the server process",
    }
    layers.update(span_layers(trace, layers))
    layers["trace_overhead_pct"] = overhead_pct(
        traced_load["wall"], load["wall"])
    return layers, {}, trace


def _fresh_share(load: dict) -> float:
    stats = load["stats"]
    return (stats["completed"] - stats["cache_hits"]) / max(
        1, stats["submissions"])


WORKLOADS = {
    "engines": run_engines,
    "exhibits": run_exhibits,
    "serve": run_serve,
}


# -- output -----------------------------------------------------------------
def _report(metrics: dict, rows, extra: dict, trace: dict | None,
            meta: dict, out) -> dict:
    from perfbench.metrics import PER_LAYER

    units = {name: unit for name, unit, *_ in rows}
    if trace is not None:
        absent = {f"{layer}.{suffix}" for layer in _missing_layers(trace)
                  for suffix in ("self_s", "calls")}
        metrics = {name: metrics.get(name, 0)
                   for name, *_ in PER_LAYER if name not in absent}
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:34s} {value!r}")
    if trace is not None:
        acc = trace["accounting"]
        covered = sum(acc["self_s"].values()) + acc["other_s"]
        print(f"traced pass: {acc['wall_s']:.3f} s wall; self times + "
              f"other.self_s = {covered:.3f} s; farm {trace['farm']}")
        for target in trace["missing"]:
            print(f"missing hook: {target}")
    for failure in out.failures:
        print(f"FAILED: {failure}")
    if "parallelism" in meta:
        print(meta["parallelism"])
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _missing_layers(trace: dict) -> set:
    from perfbench.hooks import TARGETS

    return {layer for layer, _ in TARGETS} - set(trace["layers"])


def _write_results(args, doc: dict, extra: dict, trace, meta: dict) -> None:
    from perfbench import spans

    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    meta = {**meta, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"]}
    if trace is not None:
        meta["traced_farm"] = trace["farm"]
        meta["missing_hooks"] = trace["missing"]
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans.chrome_trace(trace["dumps"], trace["start_ns"]),
                      fh)
    flat = {name: m["value"] for name, m in doc["metrics"].items()}
    flat.update(extra)
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, **flat}, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from a repository checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    _paths()
    from perfbench import checks, common, workloads
    from perfbench.metrics import END_TO_END, PER_LAYER

    common.scrub_env()
    scratch = common.Scratch(os.path.join(ROOT, ".perfbench", "tmp"))
    # The compiler's and the farm's scratch files (pool start beacons) go
    # to the temp dir; keep them, like everything else, inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = scratch.root
    try:
        from repro.gpu import _native

        native = _native.available()  # compiled once here, before timing
        meta = common.provenance(native)
        refs = checks.load_references()[args.workload]
        out = workloads.Outcome()
        metrics, extra, trace = WORKLOADS[args.workload](
            args, scratch, refs, out)
    finally:
        scratch.close()
    doc = _report(metrics, PER_LAYER if args.trace else END_TO_END,
                  extra, trace, meta, out)
    _write_results(args, doc, extra, trace, meta)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
