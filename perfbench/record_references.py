"""Record the output references the benchmark checks against.

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: each engine's result fingerprint at
the default simulation budget, the SHA-256 of the exhibits markdown at the
benchmark's budget, and the summary of every spec the ``serve`` pool can
draw, computed by a direct farm run (so a served result must equal it).
Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    from perfbench import checks, common, serve_load, workloads
    from repro.farm import ArtifactStore, Farm, JobSpec
    from repro.serve.protocol import summarize_result

    common.scrub_env()
    scratch = common.Scratch(os.path.join(ROOT, ".perfbench", "tmp"))
    try:
        engines = workloads.engines_pass(scratch, warm_repeats=0)
        exhibits = workloads.exhibits_pass(scratch, min_warm=0)
        specs = [{"kind": "api", "seed": s} for s in serve_load.API_SEEDS]
        specs += [{"kind": "sim", "seed": s} for s in serve_load.SIM_SEEDS]
        specs = [{"workload": serve_load.WORKLOAD, "frames": 1, **spec}
                 for spec in specs]
        jobs = [JobSpec(s["kind"], s["workload"], s["frames"], seed=s["seed"])
                for s in specs]
        with Farm(store=ArtifactStore(scratch.store())) as farm:
            results = farm.run(jobs)
        serve = {checks.summary_key(spec): summarize_result(job, results[job])
                 for spec, job in zip(specs, jobs)}
    finally:
        scratch.close()
    frames = engines["frames"]
    doc = {
        "engines": {f"{name}@{frames}": checks.sim_fingerprint(result)
                    for name, result in engines["results"].items()},
        "exhibits": {workloads.exhibits_budget_key(exhibits["budget"]):
                     checks.text_fingerprint(exhibits["text"])},
        "serve": serve,
    }
    checks.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                 + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
