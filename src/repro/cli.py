"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``list``          list the registered workloads (Table I metadata)
``characterize``  API-level statistics for one workload
``simulate``      microarchitectural simulation of one workload
``trace``         dump a workload's API trace to JSONL
``replay``        replay a JSONL trace through the simulator
``tables``        regenerate paper tables (all or selected) into a directory
``figures``       regenerate paper figures (text + CSV) into a directory
``scorecard``     regenerate EXPERIMENTS.md (measured vs paper)
``bench``         pipeline throughput benchmark (writes BENCH_pipeline.json)
``observe``       traced run: export a Chrome-trace/Perfetto timeline,
                  rank spans and draw calls, dump the metrics registry
``farm``          inspect (``status``) or empty (``clear``) the artifact cache
``chaos``         injected-fault recovery suite (crash/hang/corruption/...)
``compare``       cross-run regression explorer: diff two runs (bench
                  documents, history lines, span exports, live probes, git
                  revisions) with tolerance classes, render ASCII/HTML/JSON,
                  optionally gate (``--fail-on``); ``--history`` renders the
                  bench-history trajectory

The measurement-heavy commands (``tables``, ``figures``, ``scorecard``,
``simulate``) run on the execution farm: ``--jobs N`` shards the underlying
measurement runs across worker processes (default: all cores), results are
cached content-addressed under ``.repro-cache/`` (``--cache-dir`` or
``REPRO_CACHE_DIR`` override, ``--no-cache`` to disable), and interrupted
simulations resume from their last checkpointed frame.  Every
farm-backed command also takes ``--shard-frames`` (the farm's
frame-sharding policy); ``serve`` does not, as its lanes run one unit
per job.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.api.trace import load_trace, save_trace
from repro.experiments import ExperimentConfig, Runner, figures, tables
from repro.gpu.stats import MemClient
from repro.util.tables import format_table
from repro.workloads import all_workloads, build_workload

#: Which measurement kinds each exhibit reads (for selective prefetching).
_TABLE_KINDS = {
    "table3": "api", "table4": "api", "table5": "api", "table12": "api",
    "table7": "geometry",
    "table8": "sim", "table9": "sim", "table10": "sim", "table11": "sim",
    "table13": "sim", "table14": "sim", "table15": "sim", "table16": "sim",
    "table17": "sim",
}
_FIGURE_KINDS = {
    "figure1": "api", "figure2": "api", "figure3": "api", "figure8": "api",
    "figure5": "geometry", "figure6": "geometry",
    "figure7": "sim",
}


def _cmd_list(args) -> int:
    rows = [
        [
            spec.name,
            spec.api.value,
            spec.engine,
            spec.frames,
            f"{spec.aniso_level}X" if spec.aniso_level else "trilinear",
            "shaders" if spec.uses_shaders else "fixed function",
        ]
        for spec in all_workloads()
    ]
    print(
        format_table(
            ["workload", "API", "engine", "frames", "filtering", "shading"],
            rows,
            title="Registered workloads (paper Table I)",
        )
    )
    return 0


def _cmd_characterize(args) -> int:
    workload = build_workload(args.workload)
    stats = workload.api_stats(frames=args.frames)
    rows = [
        ["frames analyzed", stats.frame_count],
        ["batches/frame", round(stats.total_batches / stats.frame_count)],
        ["indices/batch", round(stats.avg_indices_per_batch)],
        ["indices/frame", round(stats.avg_indices_per_frame)],
        ["index MB/s @100fps",
         round(stats.index_bandwidth_bytes_per_s(100) / 1e6, 1)],
        ["state calls/frame", round(stats.avg_state_calls_per_frame)],
        ["vertex instructions", round(stats.avg_vertex_instructions, 2)],
        ["fragment instructions", round(stats.avg_fragment_instructions, 2)],
        ["texture instructions", round(stats.avg_texture_instructions, 2)],
        ["ALU:TEX ratio", round(stats.alu_to_texture_ratio, 2)],
    ]
    print(format_table(["metric", "value"], rows, title=args.workload))
    return 0


def _cmd_simulate(args) -> int:
    from repro.farm import Farm, JobSpec

    farm = Farm(
        store=_make_store(args),
        jobs=_resolve_jobs(args),
        use_cache=not args.no_cache,
        strict=not args.keep_going,
        shard_frames=args.shard_frames,
    )
    result = farm.run_one(JobSpec("sim", args.workload, args.frames))
    stats = result.stats
    clip, cull, trav = stats.clip_cull_traverse_percent
    fates = stats.quad_fate_percent
    mem = result.memory
    rows = [
        ["frames simulated", stats.frames],
        ["resolution", f"{result.config.width}x{result.config.height}"],
        ["% clipped/culled/traversed",
         f"{clip:.0f} / {cull:.0f} / {trav:.0f}"],
        ["vertex cache hit rate", f"{stats.vertex_cache_hit_rate:.1%}"],
        ["overdraw (raster)", f"{result.overdraw('raster'):.1f}"],
        ["overdraw (blended)", f"{result.overdraw('blended'):.1f}"],
        ["quad efficiency", f"{stats.quad_efficiency_raster:.1%}"],
        ["bilinears/request", f"{stats.bilinears_per_texture_request:.2f}"],
        ["memory MB/frame", f"{mem.bytes_per_frame(stats.frames) / 1e6:.1f}"],
    ]
    rows.extend(
        [f"quad fate {fate.value}", f"{pct:.1f}%"] for fate, pct in fates.items()
    )
    rows.extend(
        [f"traffic {client.value}", f"{mem.traffic_distribution[client]:.1f}%"]
        for client in MemClient
    )
    print(format_table(["metric", "value"], rows, title=args.workload))
    if args.ppm:
        workload2 = build_workload(args.workload, sim=True)
        sim = workload2.simulator()
        sim.run_trace(workload2.trace(frames=1))
        sim.fb.to_ppm(args.ppm)
        print(f"wrote {args.ppm}")
    return 0


def _cmd_trace(args) -> int:
    workload = build_workload(args.workload, sim=args.sim_profile)
    trace = workload.trace(frames=args.frames)
    save_trace(trace, args.output)
    print(f"wrote {args.frames} frames of {args.workload} to {args.output}")
    return 0


def _cmd_replay(args) -> int:
    trace = load_trace(args.trace)
    name = trace.meta.name
    workload = build_workload(name, sim=True)
    sim = workload.simulator()
    result = sim.run_trace(trace)
    print(
        f"replayed {result.stats.frames} frames of {name}: "
        f"{result.stats.fragments_blended} fragments blended, "
        f"{result.memory.total_bytes / 1e6:.1f} MB of memory traffic"
    )
    return 0


def _add_farm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for measurement runs (0 = all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk artifact cache (and checkpointing)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="on permanent job failure, return the completed results plus "
        "a failure report instead of aborting the batch",
    )
    parser.add_argument(
        "--shard-frames",
        type=int,
        default=None,
        help="farm frame-sharding policy (default automatic, 0 off; pin to "
        "a fixed value for results comparable across --jobs widths)",
    )


def _add_measurement_flags(
    parser: argparse.ArgumentParser,
    api_frames: int,
    sim_frames: int,
    geometry_frames: int,
) -> None:
    """The unified measurement interface: ``--frames`` + farm flags.

    ``--frames`` sets every kind's budget at once; the per-kind flags
    refine individual kinds and win over ``--frames`` when both are given.
    """
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="frame budget for every measurement kind "
        "(per-kind flags below override)",
    )
    parser.add_argument("--api-frames", type=int, default=None)
    parser.add_argument("--sim-frames", type=int, default=None)
    parser.add_argument("--geometry-frames", type=int, default=None)
    parser.set_defaults(
        _frame_defaults=(api_frames, sim_frames, geometry_frames)
    )
    _add_farm_flags(parser)


def _budget(args, per_kind_value: int | None, default: int) -> int:
    if per_kind_value is not None:
        return per_kind_value
    if args.frames is not None:
        return args.frames
    return default


def _resolve_jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    return jobs if jobs else (os.cpu_count() or 1)


def _make_store(args):
    from repro.farm import ArtifactStore

    return ArtifactStore(getattr(args, "cache_dir", None))


def _make_runner(args) -> Runner:
    api_default, sim_default, geometry_default = args._frame_defaults
    return Runner(
        ExperimentConfig(
            api_frames=_budget(args, args.api_frames, api_default),
            sim_frames=_budget(args, args.sim_frames, sim_default),
            geometry_frames=_budget(args, args.geometry_frames, geometry_default),
        ),
        jobs=_resolve_jobs(args),
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        strict=not args.keep_going,
        shard_frames=args.shard_frames,
    )


def _prefetch_for(runner: Runner, selected: list[str], kinds: dict) -> None:
    """Batch the selected exhibits' measurement runs through the farm."""
    needed = {kinds[name] for name in selected if name in kinds}
    if not needed:
        return
    runner.prefetch(
        api_names=None if "api" in needed else [],
        sim_names=None if "sim" in needed else [],
        geometry_names=None if "geometry" in needed else [],
    )


def _cmd_tables(args) -> int:
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _make_runner(args)
    selected = args.only or sorted(tables.ALL_TABLES)
    for name in selected:
        if name not in tables.ALL_TABLES:
            print(f"unknown table {name!r}", file=sys.stderr)
            return 2
    _prefetch_for(runner, selected, _TABLE_KINDS)
    for name in selected:
        comparison = tables.ALL_TABLES[name](runner=runner)
        text = comparison.as_text()
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print(text)
        print()
    return 0


def _cmd_figures(args) -> int:
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _make_runner(args)
    selected = args.only or sorted(figures.ALL_FIGURES)
    for name in selected:
        if name not in figures.ALL_FIGURES:
            print(f"unknown figure {name!r}", file=sys.stderr)
            return 2
    _prefetch_for(runner, selected, _FIGURE_KINDS)
    for name in selected:
        figure = figures.ALL_FIGURES[name](runner=runner)
        (out_dir / f"{name}.txt").write_text(figure.as_text() + "\n")
        (out_dir / f"{name}.csv").write_text(figure.as_csv() + "\n")
        print(figure.as_text())
        print()
    return 0


def _cmd_profile(args) -> int:
    from repro.gpu.profiler import profile_workload

    workload = build_workload(args.workload, sim=True)
    profiles = profile_workload(workload, frames=args.frames)
    profile = profiles[-1]
    rows = [
        [
            d.index,
            d.mesh if len(d.mesh) < 36 else "..." + d.mesh[-33:],
            d.pass_kind,
            d.triangles_traversed,
            d.fragments_rasterized,
            d.fragments_shaded,
            round(d.memory_bytes / 1024.0, 1),
        ]
        for d in profile.heaviest(args.top, by=args.sort)
    ]
    print(
        format_table(
            ["#", "mesh", "pass", "tris", "frags", "shaded", "KB moved"],
            rows,
            title=f"Heaviest {args.top} draws of frame {profile.frame} "
            f"({args.workload}, sorted by {args.sort})",
        )
    )
    kinds = profile.by_pass_kind()
    total = sum(kinds.values()) or 1
    print()
    for kind, nbytes in sorted(kinds.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:14s} {100 * nbytes / total:5.1f}% of draw memory traffic")
    return 0


def _cmd_scorecard(args) -> int:
    from repro.experiments.scorecard import experiments_markdown

    runner = _make_runner(args)
    runner.prefetch()
    markdown = experiments_markdown(runner)
    out = pathlib.Path(args.output)
    out.write_text(markdown + "\n")
    print(f"wrote {out}")
    print(runner.telemetry.summary_line())
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.bench import (
        DEFAULT_WORKLOAD,
        bench_pipeline,
        write_bench,
    )

    doc = bench_pipeline(
        workload=args.workload or DEFAULT_WORKLOAD,
        frames=args.frames,
        farm_frames=args.farm_frames,
        jobs=tuple(args.jobs),
        include_farm=not args.skip_farm,
        repeats=args.repeats,
    )
    out = write_bench(doc, args.out)
    speedup = doc["speedup"]["fragments_per_s"]
    identical = doc["quadstream"]["identical"]
    print(
        f"wrote {out}: QuadStream {speedup:.2f}x fragments/s "
        f"({doc['quadstream']['seconds']}s vs "
        f"{doc['per_triangle']['seconds']}s per-triangle, "
        f"identical={identical})"
    )
    if "farm" in doc:
        farm = doc["farm"]
        print(
            f"farm ({len(farm['workloads'])} workloads x {farm['frames']} "
            f"frames, {farm['cpu_count']} cpu(s)): "
            f"serial {farm['serial']['seconds']}s"
        )
        for width, entry in farm["parallel"].items():
            phases = " ".join(
                f"{name} {seconds}s"
                for name, seconds in entry["phases"].items()
            )
            print(
                f"  --jobs {width}: {entry['seconds']}s, "
                f"{entry['speedup']:.2f}x [{phases}]"
            )
    observer = doc.get("observer")
    if observer:
        print(
            f"observer: {observer['seconds']}s traced "
            f"({observer['spans']} spans), "
            f"{observer['overhead_pct']:+.1f}% vs untraced"
        )
    failed = False
    if (
        args.max_observer_overhead is not None
        and observer
        and observer["overhead_pct"] > args.max_observer_overhead
    ):
        print(
            f"FAIL: observer overhead {observer['overhead_pct']:+.1f}% above "
            f"allowed {args.max_observer_overhead:.1f}%",
            file=sys.stderr,
        )
        failed = True
    if args.min_speedup is not None:
        if not identical:
            print(
                "FAIL: QuadStream diverged from the per-triangle reference",
                file=sys.stderr,
            )
            failed = True
        if speedup < args.min_speedup:
            print(
                f"FAIL: speedup {speedup:.2f}x below required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            failed = True
    if args.min_farm_speedup is not None and "farm" in doc:
        widest = max(doc["farm"]["parallel"], key=int, default=None)
        farm_speedup = (
            doc["farm"]["parallel"][widest]["speedup"] if widest else 0.0
        )
        if farm_speedup < args.min_farm_speedup:
            print(
                f"FAIL: farm speedup {farm_speedup:.2f}x at --jobs {widest} "
                f"below required {args.min_farm_speedup:.2f}x",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


def _cmd_microbench(args) -> int:
    """GPUBench-style scenario benches: simulated events per cycle."""
    from repro.gpu.config import GpuConfig
    from repro.microbench import ALL_MICROBENCHES

    names = args.only or list(ALL_MICROBENCHES)
    unknown = [name for name in names if name not in ALL_MICROBENCHES]
    if unknown:
        print(f"unknown microbench(es): {', '.join(unknown)}", file=sys.stderr)
        return 2
    config = GpuConfig(width=args.width, height=args.height)
    print(
        f"{'bench':<22} {'metric':<20} {'events':>10} {'ev/cycle':>9} "
        "bottleneck"
    )
    for name in names:
        r = ALL_MICROBENCHES[name](config)
        per_cycle = f"{r.events_per_cycle:.2f}" if r.cycles_per_frame else "-"
        print(
            f"{r.name:<22} {r.metric:<20} {r.events:>10,} {per_cycle:>9} "
            f"{r.bottleneck}"
        )
    return 0


def _cmd_observe(args) -> int:
    """Traced run → Chrome-trace/JSONL export, top spans, metrics dump."""
    from repro import observe
    from repro.farm import Farm, JobSpec
    from repro.gpu.profiler import records_from_timeline

    observe.metrics.reset()
    tracer = observe.enable(track="main")
    try:
        # The whole run traces, so the farm mirrors every phase into the
        # process registry: the summary line and the metrics dump agree.
        farm = Farm(
            store=_make_store(args),
            jobs=_resolve_jobs(args),
            use_cache=not args.no_cache,
            strict=not args.keep_going,
            shard_frames=args.shard_frames,
        )
        with farm:
            farm.run_one(JobSpec(args.kind, args.workload, args.frames))
        timeline = tracer.timeline(observe.registry().snapshot())
    finally:
        observe.disable()

    printed = False
    if args.export:
        out = observe.write_export(args.export, timeline, clock=args.clock)
        print(
            f"wrote {out}: {len(timeline)} track(s), "
            f"{sum(len(t['spans']) for t in timeline)} span(s), "
            f"clock={args.clock}"
            + (
                " (open at https://ui.perfetto.dev)"
                if out.suffix != ".jsonl"
                else ""
            )
        )
        printed = True
    if args.timeline:
        print(observe.ascii_timeline(timeline))
        printed = True
    if args.top_spans:
        print(observe.format_top_spans(timeline, args.top_spans))
        printed = True
    if args.top_draws:
        records = records_from_timeline(timeline)
        records.sort(key=lambda r: getattr(r, args.sort), reverse=True)
        rows = [
            [
                r.frame,
                r.index,
                r.mesh,
                r.pass_kind,
                r.triangles_traversed,
                r.fragments_shaded,
                getattr(r, args.sort),
            ]
            for r in records[: args.top_draws]
        ]
        print(
            format_table(
                ["frame", "draw", "mesh", "pass", "tris", "frags", args.sort],
                rows,
                title=f"Top {len(rows)} draws by {args.sort}",
            )
        )
        printed = True
    if args.metrics:
        print(observe.format_metrics(observe.registry()))
        printed = True
    if not printed:
        print(farm.telemetry.summary_line())
        print(observe.format_top_spans(timeline, 10))
    return 0


def _cmd_chaos(args) -> int:
    code = 0
    if args.suite in ("farm", "all"):
        from repro.farm.chaos import run_chaos

        code = max(code, run_chaos(seed=args.seed, jobs=args.jobs,
                                   only=args.only))
    if args.suite in ("serve", "all"):
        from repro.serve.chaos import run_serve_chaos

        code = max(
            code,
            run_serve_chaos(
                seed=args.seed, only=args.only, artifacts_dir=args.artifacts
            ),
        )
    return code


def _cmd_farm(args) -> int:
    store = _make_store(args)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} file(s) from {store.root}")
        return 0
    entries = store.entries()
    rows = [
        [
            m.get("kind", "?"),
            m.get("workload", "?"),
            m.get("frames", "?"),
            m["key"][:12],
            f"{m['bytes'] / 1024:.0f}",
            f"{m['wall_s']:.1f}" if m.get("wall_s") is not None else "-",
        ]
        for m in entries
    ]
    print(
        format_table(
            ["kind", "workload", "frames", "key", "KB", "wall s"],
            rows,
            title=f"Artifact cache at {store.root}",
        )
    )
    checkpoints = store.checkpoints()
    saved = sum(m["wall_s"] or 0.0 for m in entries)
    print()
    print(
        f"{len(entries)} artifact(s), {store.total_bytes() / 1e6:.1f} MB stored, "
        f"~{saved:.0f}s of compute banked; "
        f"{len(checkpoints)} in-flight checkpoint(s)"
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        lanes=args.lanes,
        queue_depth=args.queue_depth,
        quota_bytes=(
            int(args.quota_mb * 1e6) if args.quota_mb is not None else None
        ),
        cache_dir=args.cache_dir,
        verbose_events=args.verbose_events,
        default_deadline_s=args.default_deadline,
        journal=not args.no_journal,
        lane_hang_s=args.lane_hang,
        request_timeout_s=args.request_timeout,
    )
    server = ReproServer(config)

    async def _run() -> None:
        await server.start()
        print(
            f"repro serve listening on http://{config.host}:{server.port} "
            f"({config.lanes} lane(s), queue depth {config.queue_depth}, "
            f"cache {server.store.root})",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted")
    return 0


def _cmd_loadtest(args) -> int:
    from repro.serve import check_loadtest, run_loadtest

    doc = run_loadtest(
        clients=args.clients,
        requests_per_client=args.requests,
        unique=args.unique,
        kind=args.kind,
        workload=args.workload,
        frames=args.frames,
        lanes=args.lanes,
        queue_depth=args.queue_depth,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        out=args.out,
    )
    print(
        f"{doc['requests']} requests from {doc['clients']} clients: "
        f"{doc['errors']} error(s), {doc['dropped']} dropped, "
        f"cache hit rate {doc['cache']['hit_rate']}, "
        f"{doc['backpressure_429s']} backpressure 429(s)"
    )
    for name, wave in doc["waves"].items():
        latency = wave["latency_s"]
        print(
            f"  {name}: p50 {latency['p50']}s p99 {latency['p99']}s "
            f"throughput {wave['throughput_rps']} req/s "
            f"fairness spread {wave['fairness']['spread']}"
        )
    if "path" in doc:
        print(f"wrote {doc['path']}")
    problems = check_loadtest(doc)
    for problem in problems:
        print(f"LOADTEST FAIL: {problem}")
    return 1 if problems else 0


def _cmd_compare(args) -> int:
    from repro import compare

    if args.history:
        entries = compare.load_history(args.history_file, bench=args.bench)
        if not entries:
            print("no bench history entries", file=sys.stderr)
            return 2
        if args.format == "html":
            rendered = compare.render_history_html(entries)
        elif args.format == "json":
            import json as _json

            rendered = _json.dumps(entries, indent=2, sort_keys=True) + "\n"
        else:
            rendered = compare.render_history_ascii(entries) + "\n"
        if args.out:
            pathlib.Path(args.out).write_text(rendered)
            print(compare.render_history_ascii(entries))
            print(f"wrote {args.out}")
        else:
            print(rendered, end="")
        return 0

    if len(args.runs) != 2:
        print(
            "compare needs exactly two runs (or --history); got "
            f"{len(args.runs)}",
            file=sys.stderr,
        )
        return 2

    band = args.band
    mode = None
    if args.fail_on:
        try:
            mode, fail_band = compare.parse_fail_on(args.fail_on)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if band is None:
            band = fail_band
    if band is None:
        band = compare.DEFAULT_BAND_PCT

    probe = compare.ProbeSpec(
        kind=args.kind,
        workload=args.workload,
        frames=args.frames,
        jobs=args.jobs,
        shard_frames=args.shard_frames,
    )
    options = compare.LoadOptions(
        probe=probe,
        cell_tables=args.tables,
        history_bench=args.bench,
    )
    try:
        run_a = compare.load_run(args.runs[0], options)
        run_b = compare.load_run(args.runs[1], options)
        diff = compare.diff_runs(
            run_a,
            run_b,
            band_pct=band,
            include_cells=bool(args.tables),
            include_noise=not args.no_noise,
        )
    except (ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "html":
        history = compare.load_history(args.history_file, bench=args.bench)
        rendered = compare.render_html(diff, history=history or None)
    elif args.format == "json":
        rendered = compare.render_json(diff)
    else:
        rendered = compare.render_ascii(diff) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(rendered)
        print(compare.render_ascii(diff))
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
        if args.format != "ascii":
            print(compare.render_ascii(diff), file=sys.stderr)

    if mode is not None:
        violations = compare.gate(diff, mode)
        if violations:
            print(
                f"COMPARE GATE FAIL ({args.fail_on}): "
                f"{len(violations)} violation(s)",
                file=sys.stderr,
            )
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        print(f"compare gate ok ({args.fail_on})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Workload Characterization of 3D Games (IISWC 2006) "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads").set_defaults(
        func=_cmd_list
    )

    p = sub.add_parser("characterize", help="API-level statistics")
    p.add_argument("workload")
    p.add_argument("--frames", type=int, default=120)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("simulate", help="microarchitectural simulation")
    p.add_argument("workload")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--ppm", help="also write a rendered frame here")
    _add_farm_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trace", help="dump a workload trace to JSONL")
    p.add_argument("workload")
    p.add_argument("output")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--sim-profile", action="store_true")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("replay", help="replay a JSONL trace")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("profile", help="per-draw profiler (NVPerfHUD-style)")
    p.add_argument("workload")
    p.add_argument("--frames", type=int, default=2)
    p.add_argument("--top", type=int, default=12)
    p.add_argument(
        "--sort",
        default="memory_bytes",
        choices=["memory_bytes", "fragments_rasterized", "fragments_shaded",
                 "triangles_traversed", "bilinear_samples"],
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "scorecard", help="regenerate EXPERIMENTS.md (measured vs paper)"
    )
    p.add_argument("--output", default="EXPERIMENTS.md")
    _add_measurement_flags(p, api_frames=120, sim_frames=6, geometry_frames=60)
    p.set_defaults(func=_cmd_scorecard)

    for name, func, help_text in (
        ("tables", _cmd_tables, "regenerate paper tables"),
        ("figures", _cmd_figures, "regenerate paper figures"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out-dir", default="results")
        p.add_argument("--only", nargs="*", help="subset, e.g. table3 table9")
        _add_measurement_flags(
            p, api_frames=120, sim_frames=4, geometry_frames=60
        )
        p.set_defaults(func=func)

    p = sub.add_parser(
        "bench", help="pipeline throughput benchmark (BENCH_pipeline.json)"
    )
    p.add_argument("--workload", default=None, help="benchmark workload")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--farm-frames", type=int, default=2)
    p.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=[2, 4],
        help="parallel farm widths to measure (serial is always measured)",
    )
    p.add_argument("--skip-farm", action="store_true")
    p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per path (the fastest run is kept)",
    )
    p.add_argument("--out", default="BENCH_pipeline.json")
    p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if QuadStream fragments/s falls below this "
        "multiple of the per-triangle path (or diverges from it)",
    )
    p.add_argument(
        "--min-farm-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if the farm speedup at the widest --jobs value "
        "falls below this multiple of the serial farm run",
    )
    p.add_argument(
        "--max-observer-overhead",
        type=float,
        default=None,
        help="fail (exit 1) if the traced run is more than this many "
        "percent slower than the untraced run",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "microbench",
        help="GPUBench-style stage microbenchmarks",
    )
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=192)
    p.add_argument(
        "--only",
        nargs="*",
        help="subset, e.g. fill_rate zstencil_rate",
    )
    p.set_defaults(func=_cmd_microbench)

    p = sub.add_parser(
        "observe",
        help="traced run: export a timeline, rank spans/draws, dump metrics",
    )
    p.add_argument("workload")
    p.add_argument("--frames", type=int, default=2)
    p.add_argument(
        "--kind", choices=["sim", "api", "geometry"], default="sim"
    )
    p.add_argument(
        "--export",
        default=None,
        help="write the merged timeline: .json = Chrome-trace/Perfetto, "
        ".jsonl = line records",
    )
    p.add_argument(
        "--clock",
        choices=["logical", "wall"],
        default="logical",
        help="export clock: 'logical' (event sequence, bit-stable across "
        "reruns) or 'wall' (real durations for Perfetto viewing)",
    )
    p.add_argument(
        "--timeline", action="store_true", help="print an ASCII timeline"
    )
    p.add_argument(
        "--top-spans",
        type=int,
        default=0,
        metavar="N",
        help="print the N heaviest span names by total wall time",
    )
    p.add_argument(
        "--top-draws",
        type=int,
        default=0,
        metavar="N",
        help="print the N heaviest draw calls (from gpu.draw spans)",
    )
    p.add_argument(
        "--sort",
        default="memory_bytes",
        choices=["memory_bytes", "fragments_rasterized", "fragments_shaded",
                 "triangles_traversed", "bilinear_samples"],
        help="ranking attribute for --top-draws",
    )
    p.add_argument(
        "--metrics", action="store_true", help="dump the metrics registry"
    )
    _add_farm_flags(p)
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser(
        "chaos",
        help="run the injected-fault recovery suite "
        "(crash, hang, corruption, ENOSPC, ...)",
    )
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument(
        "--jobs", type=int, default=2, help="farm width in each scenario (at least 2)"
    )
    p.add_argument(
        "--only", nargs="*", help="subset of scenarios, e.g. crash hang"
    )
    p.add_argument(
        "--suite",
        choices=["farm", "serve", "all"],
        default="farm",
        help="which suite: farm faults, serve durability, or both",
    )
    p.add_argument(
        "--artifacts",
        default=None,
        help="directory to copy serve journals + failure reports into",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("farm", help="inspect or clear the artifact cache")
    p.add_argument("action", choices=["status", "clear"])
    p.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.set_defaults(func=_cmd_farm)

    p = sub.add_parser(
        "serve",
        help="characterization service: HTTP + WebSocket over the farm",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642, help="0 = ephemeral")
    p.add_argument(
        "--lanes", type=int, default=2, help="concurrent execution lanes"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="per-client queue bound before 429 backpressure",
    )
    p.add_argument(
        "--quota-mb",
        type=float,
        default=None,
        help="artifact cache quota in MB (LRU eviction; default unlimited)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--verbose-events",
        action="store_true",
        help="stream draw/stage-level spans too (default: coarse progress)",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="deadline (s) applied to submissions that do not request one",
    )
    p.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the crash-recovery job journal",
    )
    p.add_argument(
        "--lane-hang",
        type=float,
        default=30.0,
        help="heartbeat staleness (s) before the watchdog fails a lane's job",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        help="seconds a connection may take to deliver a request head (408)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "compare",
        help="diff two runs (bench docs, history, span exports, live "
        "probes, git revisions) with tolerance classes",
    )
    p.add_argument(
        "runs",
        nargs="*",
        metavar="RUN",
        help="two run tokens: a BENCH_*.json document, a history/span "
        ".jsonl, 'live', kind:workload@frames, or a git revision",
    )
    p.add_argument(
        "--format", choices=["ascii", "html", "json"], default="ascii"
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the rendered report here (ASCII summary still printed)",
    )
    p.add_argument(
        "--fail-on",
        default=None,
        metavar="SPEC",
        help="gate and exit 1 on violations: exact | regression[:N%%] | any",
    )
    p.add_argument(
        "--band",
        type=float,
        default=None,
        help="timing noise band in percent (default 10, or the "
        "--fail-on band)",
    )
    p.add_argument(
        "--no-noise",
        action="store_true",
        help="drop within-band timing rows from the report",
    )
    p.add_argument(
        "--kind",
        choices=["sim", "api", "geometry"],
        default="sim",
        help="probe kind for live/revision runs",
    )
    p.add_argument(
        "--workload",
        default="UT2004/Primeval",
        help="probe workload for live/revision runs",
    )
    p.add_argument(
        "--frames", type=int, default=2, help="probe frame budget"
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="probe farm width"
    )
    p.add_argument(
        "--shard-frames",
        type=int,
        default=None,
        help="probe frame-sharding policy (pin for cross-width compares)",
    )
    p.add_argument(
        "--tables",
        nargs="*",
        default=None,
        help="also regenerate and diff these paper tables' cells "
        "(expensive; e.g. table3 table9)",
    )
    p.add_argument(
        "--bench",
        choices=["pipeline", "serve"],
        default=None,
        help="filter history entries to one bench kind",
    )
    p.add_argument(
        "--history",
        action="store_true",
        help="render the bench-history trajectory instead of diffing",
    )
    p.add_argument(
        "--history-file",
        default=None,
        help="history path (default results/bench_history.jsonl)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "loadtest",
        help="drive the serve layer with concurrent clients "
        "(BENCH_serve.json)",
    )
    p.add_argument(
        "--clients", type=int, default=200, help="concurrent client threads"
    )
    p.add_argument(
        "--requests", type=int, default=3, help="requests per client"
    )
    p.add_argument(
        "--unique",
        type=int,
        default=6,
        help="distinct specs in the request pool (the rest dedupe)",
    )
    p.add_argument(
        "--kind", choices=["sim", "api", "geometry"], default="api"
    )
    p.add_argument("--workload", default="UT2004/Primeval")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument(
        "--lanes", type=int, default=2, help="lanes for the in-process server"
    )
    p.add_argument("--queue-depth", type=int, default=8)
    p.add_argument(
        "--host",
        default=None,
        help="target a running server instead of booting one in-process",
    )
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--out", default="BENCH_serve.json")
    p.set_defaults(func=_cmd_loadtest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
