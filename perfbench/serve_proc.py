"""Server process for the ``serve`` workload.

Boots a characterization server with the default ``ServeConfig`` (only the
port, ephemeral, and the store, empty, differ) and prints ``port <n>``
once it listens.  With ``--spans FILE`` the benchmark's wrappers are
active in this process, results are tallied once per job, and the spans
are written to FILE when the server has drained.

Run by ``perfbench/run.py``; ``python3 perfbench/serve_proc.py --store DIR``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _tally_results(rec) -> None:
    """Count each job's simulated events once, as the server summarizes it."""
    from perfbench import tally
    from repro.serve import server as server_module

    summarize = server_module.summarize_result
    seen: set = set()

    def tallied(spec, result):
        doc = summarize(spec, result)
        key = rec.job_key(spec)
        if key not in seen:
            seen.add(key)
            tally.tally(rec.counters, result)
        return doc

    server_module.summarize_result = tallied


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from repro.serve.server import ReproServer, ServeConfig

    rec = installed = None
    if args.spans:
        from perfbench import hooks, spans

        rec = spans.SpanRecorder()
        installed = hooks.install(rec)
        _tally_results(rec)

    server = ReproServer(ServeConfig(port=0, cache_dir=args.store))

    async def serve() -> None:
        await server.start()
        print(f"port {server.port}", flush=True)
        await server.serve_forever()

    asyncio.run(serve())
    if rec is not None:
        spans.write_dump(args.spans, {
            **rec.dump(),
            "layers": sorted(installed.layers),
            "missing": installed.missing,
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
